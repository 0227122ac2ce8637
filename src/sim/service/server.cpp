#include "sim/service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/str.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim::service {
namespace {

/// Bound on the (scenario, scheme) resolve memo; overflow clears the
/// map wholesale (the memo is pure gain, never a correctness input).
constexpr std::size_t kResolveMemoCap = 4096;

ServiceConfig normalize(ServiceConfig cfg) {
  if (cfg.journal.empty()) cfg.journal = cfg.root + "/backlog.journal";
  if (cfg.workers == 0) cfg.workers = 1;
  if (cfg.ring_capacity < 2) cfg.ring_capacity = 2;
  return cfg;
}

/// Fills a ring op's answer with one status=error part per item and
/// completes it — the op never blocks its client, whatever went wrong.
void fail_ring_op(RingOp* op, const std::string& why) {
  op->answer.id = op->query.id;
  op->answer.parts.clear();
  op->answer.parts.resize(op->query.items.empty() ? 1
                                                  : op->query.items.size());
  for (BatchPart& part : op->answer.parts) {
    part.status = AnswerStatus::kError;
    part.error = why;
  }
  op->complete();
}

}  // namespace

CampaignServer::CampaignServer(ServiceConfig cfg)
    : cfg_(normalize(std::move(cfg))),
      env_(&fault::env()),
      start_(std::chrono::steady_clock::now()),
      backlog_(cfg_.max_backlog, cfg_.journal),
      lease_(cfg_.lease_ms, cfg_.max_holds),
      index_(cfg_.cache_dir),
      ring_(cfg_.ring_capacity) {
  env_->create_directories(submit_dir(cfg_.root));
  env_->create_directories(answer_dir(cfg_.root));
  gc_answers();
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back(
        [this, i](const std::stop_token& stop) { worker_loop(stop, i); });
  }
  ring_thread_ = std::jthread(
      [this](const std::stop_token& stop) { ring_loop(stop); });
}

CampaignServer::~CampaignServer() {
  for (auto& w : workers_) w.request_stop();
  ring_thread_.request_stop();
  wake_cv_.notify_all();
  // Unpark the ring drain (it may be in an atomic wait).
  ring_pushes_.fetch_add(1, std::memory_order_seq_cst);
  ring_pushes_.notify_all();
  // Join before any member the workers touch is destroyed.
  for (auto& w : workers_) w.join();
  ring_thread_.join();
  // No client may block past our lifetime: ops still queued in the
  // ring, or tracked but unfinished, drain with status=error.
  while (RingOp* op = ring_.try_pop()) {
    fail_ring_op(op, "server shut down before the answer resolved");
  }
  for (auto& [id, tq] : tracked_) {
    if (tq.ring != nullptr && tq.ring->state() == RingOp::kPending) {
      fail_ring_op(tq.ring, "server shut down before the answer resolved");
    }
  }
}

std::uint64_t CampaignServer::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void CampaignServer::gc_answers() {
  const std::string adir = answer_dir(cfg_.root);
  answer_temps_reaped_.store(reap_orphaned_temps(*env_, adir),
                             std::memory_order_relaxed);
  // Reap acked answers (no matching submit file — the client saw them
  // or abandoned them) beyond the retention cap, oldest name first:
  // the same bounded-evidence pattern as the stores' quarantine cap.
  std::vector<std::string> published;
  for (const std::string& name : env_->list_dir(adir)) {
    if (name.size() > 7 && name.rfind(".answer") == name.size() - 7) {
      published.push_back(name);
    }
  }
  if (published.size() <= kAnswerKeepCap) return;
  std::sort(published.begin(), published.end());
  std::size_t remaining = published.size();
  std::uint64_t reaped = 0;
  for (const std::string& name : published) {
    if (remaining <= kAnswerKeepCap) break;
    const std::string id = name.substr(0, name.size() - 7);
    std::vector<std::byte> probe;
    if (env_->read_file(query_path(cfg_.root, id), probe, 1)) {
      continue;  // still awaiting pickup — the submit file is live
    }
    env_->remove(adir + "/" + name);
    ++reaped;
    --remaining;
  }
  answers_reaped_.store(reaped, std::memory_order_relaxed);
  if (reaped > 0) {
    std::fprintf(stderr,
                 "snug: campaignd: reaped %llu acked answers over the "
                 "%zu-entry retention cap\n",
                 static_cast<unsigned long long>(reaped), kAnswerKeepCap);
  }
}

ExperimentRunner& CampaignServer::runner_for(const ScenarioSpec& spec,
                                             std::uint64_t runner_key) {
  const std::lock_guard<std::mutex> lock(runners_mu_);
  auto it = runners_.find(runner_key);
  if (it == runners_.end()) {
    it = runners_
             .emplace(runner_key,
                      std::make_unique<ExperimentRunner>(
                          spec, cfg_.cache_dir, cfg_.root + "/warm_bank"))
             .first;
  }
  return *it->second;
}

std::shared_ptr<const CampaignServer::ResolvedItem>
CampaignServer::resolve_item(const BatchItem& item) {
  const std::string key = item.scheme_id + '\x1f' + item.scenario_text;
  {
    const std::lock_guard<std::mutex> lock(resolve_mu_);
    const auto it = resolve_memo_.find(key);
    if (it != resolve_memo_.end()) return it->second;
  }
  auto r = std::make_shared<ResolvedItem>();
  std::string error;
  ScenarioSpec spec;
  if (!parse_scenario(item.scenario_text, spec, error)) {
    r->error = "bad scenario: " + error;
  } else if (const std::string invalid = spec.validate(); !invalid.empty()) {
    r->error = "bad scenario: " + invalid;
  } else if (!schemes::parse_scheme_id(item.scheme_id, r->scheme)) {
    r->error = "unknown scheme '" + item.scheme_id + "'";
  } else {
    r->ok = true;
    r->spec = spec;
    const SystemConfig sys = spec.system_config();
    r->runner_key = config_fingerprint(sys, spec.scale);
    r->combos = spec.combos();
    r->fps.reserve(r->combos.size());
    for (const trace::WorkloadCombo& combo : r->combos) {
      r->fps.push_back(run_fingerprint(sys, spec.scale, combo, r->scheme));
    }
  }
  const std::lock_guard<std::mutex> lock(resolve_mu_);
  if (resolve_memo_.size() >= kResolveMemoCap) resolve_memo_.clear();
  return resolve_memo_.emplace(key, std::move(r)).first->second;
}

CampaignServer::TrackedPart CampaignServer::build_part(const BatchItem& item,
                                                       bool allow_refresh) {
  TrackedPart part;
  const std::shared_ptr<const ResolvedItem> r = resolve_item(item);
  if (!r->ok) {
    part.status = AnswerStatus::kError;
    part.error = r->error;
    return part;
  }
  std::vector<std::size_t> missing;
  bool refreshed = false;
  part.cells.reserve(r->combos.size());
  for (std::size_t i = 0; i < r->combos.size(); ++i) {
    TrackedCell cell;
    cell.combo = r->combos[i].name;
    cell.fp = r->fps[i];
    bool hit = index_.lookup(cell.fp, cell.ipc);
    if (!hit && allow_refresh && !refreshed) {
      // The ring path does not ride the poller's per-pass refresh, so a
      // first miss buys one epoch check — another process may have
      // published this cell since the last scan.
      refreshed = true;
      if (index_.maybe_refresh()) hit = index_.lookup(cell.fp, cell.ipc);
    }
    if (hit) {
      // Hit path: answered from the in-memory index — no file read and
      // no journal append.  The cache entry is the durable record: a
      // crash before the answer publishes re-ingests the query, which
      // hits the index again and reproduces the identical bytes.
      cell.resolved = true;
      cells_from_cache_.fetch_add(1, std::memory_order_relaxed);
    } else if (backlog_.state(cell.fp) == BacklogScheduler::State::kUnknown) {
      missing.push_back(i);
    }
    part.cells.push_back(std::move(cell));
  }
  if (!missing.empty()) {
    ExperimentRunner& runner = runner_for(r->spec, r->runner_key);
    const std::string scheme_id = r->scheme.id();
    std::vector<BacklogCell> fresh;
    fresh.reserve(missing.size());
    for (const std::size_t i : missing) {
      BacklogCell cell;
      cell.fp = r->fps[i];
      cell.combo = r->combos[i].name;
      cell.scheme = scheme_id;
      cell.label = cell.combo + "/" + scheme_id;
      cell.runner_key = r->runner_key;
      {
        // Workers resolve cells through work_, so it must be populated
        // before any cell of this part can be claimed.
        const std::lock_guard<std::mutex> lock(state_mu_);
        work_.emplace(cell.fp, WorkItem{r->combos[i], r->scheme, &runner});
      }
      fresh.push_back(std::move(cell));
    }
    if (!backlog_.admit(fresh, nullptr)) {
      // Admission control, part-granular: nothing was enqueued and the
      // part keeps NO cells (not even its hits) — a shed part is whole.
      TrackedPart shed;
      shed.status = AnswerStatus::kRetryAfter;
      shed.retry_after_ms = cfg_.retry_after_ms;
      return shed;
    }
    wake_cv_.notify_all();
  }
  return part;
}

bool CampaignServer::collect_answer(const TrackedQuery& tq,
                                    ServiceBatchAnswer& out) {
  out.id = tq.id;
  out.parts.clear();
  out.parts.reserve(tq.parts.size());
  for (const TrackedPart& part : tq.parts) {
    BatchPart bp;
    bp.status = part.status;
    bp.error = part.error;
    bp.retry_after_ms = part.retry_after_ms;
    if (part.status == AnswerStatus::kOk) {
      for (const TrackedCell& cell : part.cells) {
        if (cell.resolved) {
          bp.cells.push_back(AnswerCell{cell.combo, cell.ipc});
          continue;
        }
        switch (backlog_.state(cell.fp)) {
          case BacklogScheduler::State::kDone: {
            AnswerCell ac;
            ac.combo = cell.combo;
            if (!backlog_.result(cell.fp, ac.ipc)) return false;
            bp.cells.push_back(std::move(ac));
            break;
          }
          case BacklogScheduler::State::kPoisoned:
            // Graceful degradation: the part still answers — healthy
            // cells are included, the poisoned ones are named.
            bp.status = AnswerStatus::kError;
            if (!bp.error.empty()) bp.error += "; ";
            bp.error += backlog_.poison_error(cell.fp);
            break;
          default:
            return false;  // still pending or leased
        }
      }
    }
    out.parts.push_back(std::move(bp));
  }
  return true;
}

bool CampaignServer::publish_text(const std::string& id,
                                  const std::string& text) {
  // Same atomic-publish discipline as the stores — plus a read-back
  // verify, because a torn answer renamed into place (and the submit
  // file then retired) would be a permanently corrupt result.  On
  // failure the submit file stays and a later poll retries under a
  // fresh temp name.
  const std::string tmp = strf(
      "%s/%s.answer.tmp.%ld.%llu", answer_dir(cfg_.root).c_str(), id.c_str(),
      static_cast<long>(::getpid()),
      static_cast<unsigned long long>(
          seq_.fetch_add(1, std::memory_order_relaxed)));
  if (!publish_verified(*env_, tmp, answer_path(cfg_.root, id), text)) {
    publish_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool CampaignServer::finish_tracked(const TrackedQuery& tq,
                                    const ServiceBatchAnswer& answer) {
  const bool need_file = tq.ring == nullptr || tq.ring->publish;
  // Each query is answered in its own dialect: a v1 query gets answer-v1
  // bytes, byte-identical to the pre-batch server's (the literal pins in
  // tests/sim/service_server_test.cpp).
  if (need_file &&
      !publish_text(tq.id, tq.dialect == WireDialect::kV1
                               ? encode_answer(single_answer(answer))
                               : encode_batch_answer(answer))) {
    return false;
  }
  if (tq.ring != nullptr) {
    tq.ring->answer = answer;
    tq.ring->complete();
  } else {
    // Only AFTER a successful publish is the submit file removed — the
    // crash contract.
    env_->remove(query_path(cfg_.root, tq.id));
  }
  if (need_file) {
    const std::lock_guard<std::mutex> lock(state_mu_);
    answered_[tq.id] = true;
  }
  return true;
}

CampaignServer::Admission CampaignServer::admit(
    TrackedQuery& tq, const std::vector<BatchItem>& items,
    bool allow_refresh) {
  tq.parts.reserve(items.size());
  for (const BatchItem& item : items) {
    tq.parts.push_back(build_part(item, allow_refresh));
  }
  parts_total_.fetch_add(items.size(), std::memory_order_relaxed);
  for (const TrackedPart& part : tq.parts) {
    if (part.status == AnswerStatus::kError) {
      parts_rejected_.fetch_add(1, std::memory_order_relaxed);
    } else if (part.status == AnswerStatus::kRetryAfter) {
      parts_shed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Warm queries (and fully rejected/shed ones) answer right here — no
  // tracking pass, no extra poll of latency.
  ServiceBatchAnswer a;
  if (!collect_answer(tq, a)) return Admission::kPending;
  return finish_tracked(tq, a) ? Admission::kAnswered
                               : Admission::kPublishFailed;
}

void CampaignServer::count_wire_query(const TrackedQuery& tq,
                                      Admission admission) {
  // The two counters whose meaning is per dialect: a batch file counts
  // in batches_ingested, and a v1 query IS its one part, so answered at
  // once its part's verdict rejects or sheds the whole query.  A batch
  // counts as ingested whatever its parts say (parts_* count those).
  if (tq.dialect == WireDialect::kV2) {
    batches_ingested_.fetch_add(1, std::memory_order_relaxed);
  }
  if (admission == Admission::kPublishFailed) return;  // re-ingested later
  const AnswerStatus verdict =
      admission == Admission::kAnswered && tq.dialect == WireDialect::kV1
          ? tq.parts.front().status
          : AnswerStatus::kOk;
  (verdict == AnswerStatus::kError        ? queries_rejected_
   : verdict == AnswerStatus::kRetryAfter ? queries_shed_
                                          : queries_ingested_)
      .fetch_add(1, std::memory_order_relaxed);
}

std::size_t CampaignServer::ingest() {
  const std::string sdir = submit_dir(cfg_.root);
  // Epoch-gated poller (ISSUE 10): every submit publish renames into
  // the directory, so an unchanged-and-settled signature means no new
  // queries — the pass costs one stat, not a listing (the racy-mtime
  // rule in common/fsepoch.hpp keeps same-tick publishes safe).  A
  // failed publish or read forces the next pass through (the retry
  // does not change the directory).
  const DirEpoch now = dir_epoch(sdir);
  if (!submit_force_rescan_ && epoch_unchanged(now, submit_epoch_)) {
    submit_scans_skipped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  submit_force_rescan_ = false;
  submit_epoch_ = now;

  std::size_t progress = 0;
  for (const std::string& name : env_->list_dir(sdir)) {
    if (name.size() <= 6 || name.rfind(".query") != name.size() - 6) {
      continue;  // temp files mid-publish, strays
    }
    const std::string id = name.substr(0, name.size() - 6);
    if (!valid_query_id(id)) continue;  // not ours to answer
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      if (tracked_.count(id) != 0) continue;
      if (answered_.count(id) != 0) {
        // Publish succeeded but the submit removal was lost: retire it.
        env_->remove(query_path(cfg_.root, id));
        continue;
      }
    }
    {
      // Restart case: the answer exists on disk from a previous server
      // life but the submit file survived the crash window.
      std::vector<std::byte> probe;
      if (env_->read_file(answer_path(cfg_.root, id), probe, 1)) {
        env_->remove(query_path(cfg_.root, id));
        const std::lock_guard<std::mutex> lock(state_mu_);
        answered_[id] = true;
        continue;
      }
    }

    std::vector<std::byte> raw;
    if (!env_->read_file(query_path(cfg_.root, id), raw)) {
      submit_force_rescan_ = true;  // transient read fault — retry
      continue;
    }
    const std::string text(reinterpret_cast<const char*>(raw.data()),
                           raw.size());

    const auto reject = [&](const std::string& why) {
      if (!publish_text(id, encode_answer(ServiceAnswer{
                                id, AnswerStatus::kError, why, 0, {}}))) {
        submit_force_rescan_ = true;
        return;
      }
      env_->remove(query_path(cfg_.root, id));
      {
        const std::lock_guard<std::mutex> lock(state_mu_);
        answered_[id] = true;
      }
      queries_rejected_.fetch_add(1, std::memory_order_relaxed);
      queries_answered_.fetch_add(1, std::memory_order_relaxed);
      ++progress;
    };

    ServiceBatchQuery query;
    TrackedQuery tq;
    std::string error;
    if (!parse_query(text, query, tq.dialect, error)) {
      // A file that is no query of either dialect is rejected wholesale
      // with an answer-v1 error (a batch client reads it as one part).
      reject(error);
      continue;
    }
    if (query.id != id) {
      reject(strf("query id '%s' does not match file name '%s'",
                  query.id.c_str(), id.c_str()));
      continue;
    }
    tq.id = id;
    const Admission admission = admit(tq, query.items, /*allow_refresh=*/false);
    count_wire_query(tq, admission);
    if (admission == Admission::kPublishFailed) {
      submit_force_rescan_ = true;  // publish failed; retry next pass
      continue;
    }
    ++progress;
    if (admission == Admission::kAnswered) {
      queries_answered_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      tracked_[id] = std::move(tq);
    }
    wake_cv_.notify_all();
  }
  return progress;
}

std::size_t CampaignServer::supervise() {
  const std::vector<LeaseTable::Expiry> expiries = lease_.scan(now_ms());
  for (const LeaseTable::Expiry& e : expiries) {
    leases_expired_.fetch_add(1, std::memory_order_relaxed);
    if (e.poisoned) {
      // Quarantine: this cell has wedged max_holds workers — stop
      // reassigning and turn it into an explicit error answer.
      backlog_.poison(
          e.fp, strf("%s: poisoned after %u lease grants (worker %u held "
                     "%llu ms past a %llu ms lease)",
                     e.label.c_str(), e.holds, e.worker,
                     static_cast<unsigned long long>(e.held_ms),
                     static_cast<unsigned long long>(lease_.lease_ms())));
      std::fprintf(stderr,
                   "snug: campaignd: poisoning %s fp=%016llx after %u "
                   "lease grants (worker %u held %llu ms)\n",
                   e.label.c_str(),
                   static_cast<unsigned long long>(e.fp), e.holds,
                   e.worker,
                   static_cast<unsigned long long>(e.held_ms));
    } else {
      backlog_.requeue(e.fp);
      reassignments_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "snug: campaignd: lease expired on %s fp=%016llx "
                   "(worker %u, held %llu ms, grant %u/%u) — "
                   "reassigning\n",
                   e.label.c_str(),
                   static_cast<unsigned long long>(e.fp), e.worker,
                   static_cast<unsigned long long>(e.held_ms), e.holds,
                   cfg_.max_holds);
    }
  }
  if (!expiries.empty()) wake_cv_.notify_all();
  return expiries.size();
}

std::size_t CampaignServer::publish() {
  std::vector<TrackedQuery> snapshot;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    snapshot.reserve(tracked_.size());
    for (const auto& [id, tq] : tracked_) snapshot.push_back(tq);
  }
  std::size_t progress = 0;
  for (const TrackedQuery& tq : snapshot) {
    ServiceBatchAnswer a;
    if (!collect_answer(tq, a)) continue;
    if (!finish_tracked(tq, a)) continue;  // retried next pass
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      tracked_.erase(tq.id);
    }
    queries_answered_.fetch_add(1, std::memory_order_relaxed);
    ++progress;
  }
  return progress;
}

std::size_t CampaignServer::poll_once() {
  // One stat per pass keeps the index fresh against other processes'
  // publishes; a rescan only happens when the epoch actually moved.
  (void)index_.maybe_refresh();
  std::size_t progress = 0;
  progress += ingest();
  progress += supervise();
  progress += publish();
  return progress;
}

std::size_t CampaignServer::serve(std::size_t idle_exit_polls,
                                  std::uint64_t poll_ms) {
  std::size_t passes = 0;
  std::size_t idle = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const std::size_t progress = poll_once();
    ++passes;
    bool is_idle = progress == 0 && backlog_.backlog() == 0 &&
                   lease_.live() == 0 && ring_.size_approx() == 0;
    if (is_idle) {
      const std::lock_guard<std::mutex> lock(state_mu_);
      is_idle = tracked_.empty();
    }
    if (is_idle) {
      if (idle_exit_polls > 0 && ++idle >= idle_exit_polls) break;
    } else {
      idle = 0;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(poll_ms > 0 ? poll_ms : 1));
  }
  return passes;
}

bool CampaignServer::ring_submit(RingOp* op) {
  if (!ring_.try_push(op)) return false;
  ring_pushes_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker pairing with ring_loop, via the seq_cst total order (no
  // standalone fences: TSan cannot model atomic_thread_fence): either
  // this load sees the drain parked (and wakes it), or the drain's
  // pre-wait seq_cst load of ring_pushes_ sees our increment and the
  // wait returns immediately.
  if (drain_parked_.load(std::memory_order_seq_cst)) {
    ring_pushes_.notify_one();
  }
  return true;
}

void CampaignServer::ring_loop(const std::stop_token& stop) {
  unsigned idle = 0;
  while (!stop.stop_requested()) {
    if (RingOp* op = ring_.try_pop()) {
      idle = 0;
      handle_ring_op(op);
      continue;
    }
    // Graduated backoff: a short yield-spin keeps back-to-back ops in
    // the microsecond regime; a quiet ring parks on a futex so an idle
    // server burns no CPU.
    if (++idle < 64) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t seen = ring_pushes_.load(std::memory_order_seq_cst);
    drain_parked_.store(true, std::memory_order_seq_cst);
    RingOp* op = ring_.try_pop();
    if (op != nullptr || stop.stop_requested()) {
      drain_parked_.store(false, std::memory_order_relaxed);
      idle = 0;
      if (op != nullptr) handle_ring_op(op);
      continue;
    }
    // seq_cst wait load closes the Dekker race: a producer that read
    // drain_parked_==false ordered its push-count increment before our
    // parked store, so this load observes it and returns without
    // blocking.  Reading the increment also acquires the pushed op.
    ring_pushes_.wait(seen, std::memory_order_seq_cst);
    drain_parked_.store(false, std::memory_order_relaxed);
    idle = 0;
  }
}

void CampaignServer::handle_ring_op(RingOp* op) {
  ring_submits_.fetch_add(1, std::memory_order_relaxed);
  if (op->query.items.empty() || op->query.items.size() > kMaxBatchItems) {
    fail_ring_op(op, strf("batch must carry 1..%zu items",
                          kMaxBatchItems));
    return;
  }
  if (op->publish && !valid_query_id(op->query.id)) {
    fail_ring_op(op, "bad id: publish requires a file-name-safe query id");
    return;
  }
  TrackedQuery tq;
  tq.id = op->query.id;
  tq.ring = op;
  // The warm path: everything resolved from the index — completed in
  // memory right here, microseconds after the push.  A failed
  // op->publish answer file (fault plan) falls through to tracking: the
  // publish() pass retries under a fresh temp.
  if (admit(tq, op->query.items, /*allow_refresh=*/true) ==
      Admission::kAnswered) {
    ring_inline_answers_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (tracked_.count(tq.id) != 0) {
      fail_ring_op(op, "duplicate query id already in flight");
      return;
    }
    tracked_[tq.id] = std::move(tq);
  }
  ring_backlogged_.fetch_add(1, std::memory_order_relaxed);
  wake_cv_.notify_all();
}

void CampaignServer::worker_loop(const std::stop_token& stop,
                                 unsigned wid) {
  while (!stop.stop_requested()) {
    {
      // Bounded wait: notifications are advisory (sent without holding
      // wake_mu_), the timeout is the liveness guarantee.
      std::unique_lock<std::mutex> lock(wake_mu_);
      (void)wake_cv_.wait_for(lock, stop, std::chrono::milliseconds(5),
                              [&] { return backlog_.pending() > 0; });
    }
    if (stop.stop_requested()) return;
    if (backlog_.pending() == 0) continue;
    BacklogCell cell;
    if (!backlog_.next_pending(cell)) continue;
    if (!lease_.acquire(cell.fp, cell.label, wid, now_ms())) {
      // Grant denied (fail@lease, or a racing live lease): hand the
      // cell back and back off — never run without a lease.
      backlog_.requeue(cell.fp);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg_.retry.backoff_ms));
      continue;
    }
    run_cell(wid, cell);
    lease_.release(cell.fp, wid);
  }
}

void CampaignServer::run_cell(unsigned wid, const BacklogCell& cell) {
  WorkItem item;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = work_.find(cell.fp);
    if (it == work_.end()) {
      backlog_.poison(cell.fp, cell.label + ": internal: no work item");
      return;
    }
    item = it->second;
  }
  const unsigned max_attempts =
      cfg_.retry.max_attempts > 0 ? cfg_.retry.max_attempts : 1;
  for (unsigned a = 1;; ++a) {
    try {
      (void)lease_.heartbeat(cell.fp, wid, now_ms());
      const RunResult r = item.runner->run(item.combo, item.scheme);
      (void)lease_.heartbeat(cell.fp, wid, now_ms());
      // complete() is the dedup point: a straggler whose lease expired
      // mid-run may land after its replacement — only the first sticks.
      if (backlog_.complete(cell.fp, r.ipc)) {
        cells_simulated_.fetch_add(1, std::memory_order_relaxed);
        // Keep the index warm without waiting for an epoch rescan.
        index_.insert(cell.fp, r.ipc);
      }
      return;
    } catch (const fault::TransientError& e) {
      if (a >= max_attempts) {
        backlog_.poison(cell.fp,
                        strf("%s: %s (gave up after %u attempts)",
                             cell.label.c_str(), e.what(), a));
        return;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      (void)lease_.heartbeat(cell.fp, wid, now_ms());
      std::this_thread::sleep_for(std::chrono::milliseconds(
          cfg_.retry.backoff_ms << (a - 1)));
    } catch (const std::exception& e) {
      backlog_.poison(cell.fp, cell.label + ": " + e.what());
      return;
    }
  }
}

CampaignServer::Stats CampaignServer::stats() const {
  Stats s;
  s.queries_ingested = queries_ingested_.load(std::memory_order_relaxed);
  s.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  s.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  s.cells_from_cache = cells_from_cache_.load(std::memory_order_relaxed);
  s.cells_simulated = cells_simulated_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.leases_expired = leases_expired_.load(std::memory_order_relaxed);
  s.reassignments = reassignments_.load(std::memory_order_relaxed);
  s.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  s.backlog = backlog_.counters();
  s.leases = lease_.counters();
  s.journal_replayed = backlog_.journal_replayed();
  s.journal_stale_reaped = backlog_.journal_stale_reaped();
  s.journal_discarded_bytes = backlog_.journal_discarded_bytes();
  s.journal_append_failures = backlog_.journal_append_failures();
  s.batches_ingested = batches_ingested_.load(std::memory_order_relaxed);
  s.parts_total = parts_total_.load(std::memory_order_relaxed);
  s.parts_rejected = parts_rejected_.load(std::memory_order_relaxed);
  s.parts_shed = parts_shed_.load(std::memory_order_relaxed);
  s.ring_submits = ring_submits_.load(std::memory_order_relaxed);
  s.ring_inline_answers =
      ring_inline_answers_.load(std::memory_order_relaxed);
  s.ring_backlogged = ring_backlogged_.load(std::memory_order_relaxed);
  s.answers_reaped = answers_reaped_.load(std::memory_order_relaxed);
  s.answer_temps_reaped =
      answer_temps_reaped_.load(std::memory_order_relaxed);
  s.submit_scans_skipped =
      submit_scans_skipped_.load(std::memory_order_relaxed);
  s.index = index_.counters();
  {
    const std::lock_guard<std::mutex> lock(runners_mu_);
    if (!runners_.empty()) {
      s.cache_entries_visible = runners_.begin()->second->cache().refresh();
    }
  }
  if (s.cache_entries_visible == 0 && !cfg_.cache_dir.empty()) {
    // No runner yet (or an empty view): probe the directory directly.
    s.cache_entries_visible = EvalCache(cfg_.cache_dir).refresh();
  }
  return s;
}

}  // namespace snug::sim::service
