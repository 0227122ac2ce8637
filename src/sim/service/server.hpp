// CampaignServer — `campaignd`'s engine: a long-lived process that owns
// the EvalCache and a crash-safe simulation backlog (ISSUE 9 tentpole),
// serving queries through a three-tier latency stack (ISSUE 10):
//
//   tier 1  AnswerIndex (sim/service/index.hpp): an in-memory
//           fingerprint index over the EvalCache, built once at open
//           and maintained incrementally by directory-epoch checks and
//           same-process inserts.  A warm cell resolves with zero
//           directory scans, zero file reads and zero journal appends
//           (the cache entry itself is the durable record: a crash
//           before the answer publishes re-ingests the query, which
//           hits the index again and reproduces the identical answer).
//   tier 2  SubmitRing (sim/service/ring.hpp): same-process clients
//           enqueue RingOp pointers into a bounded lock-free MPSC ring
//           and spin-wait; the drain thread answers warm batches
//           entirely in memory — tens of microseconds, no syscalls.
//           Ring ops whose cells miss the index are admitted into the
//           SAME journaled backlog as file-wire queries, so the ring
//           is latency-only, never a weaker durability tier.
//   tier 3  the file wire (sim/service/wire.hpp): query files of either
//           dialect of the one wire grammar (query-v1, batched
//           query-v2) in <root>/submit/, parsed by the one parse_query
//           into a batch; each is answered in its own dialect,
//           published atomically in <root>/answers/.  The durability
//           and cross-process compatibility tier.  The submit poller is
//           epoch-gated: the directory is only LISTED when its stat
//           signature moved since the last pass.
//
// Tiers 2 and 3 admit a query's parts through one path (admit): build
// each part, count parts_*, and answer inline when every part resolved.
//
// One poll_once() pass:
//
//   ingest     new query files are parsed (either dialect) into
//              per-part cell lists keyed by run_fingerprint.
//              Index-resident cells are answered in memory (hit path —
//              no simulation, no journal); the rest are deduplicated
//              into the journaled backlog (sim/service/backlog.hpp).
//              Admission control is PART-granular: a part whose fresh
//              cells would overflow the bounded backlog is shed whole
//              with status=retry-after while the rest of the batch
//              proceeds.  Malformed queries answer status=error.
//   supervise  the lease table (sim/service/lease.hpp) is scanned:
//              expired leases hand their cells back to the backlog;
//              a cell that has burned max_holds leases is poisoned and
//              its parts answer status=error for that cell.
//   publish    queries whose parts are all resolved get their answer
//              published (a file for wire clients; an in-memory
//              completion — plus optionally a file — for ring
//              clients); only AFTER a successful publish is the submit
//              file removed, so a crash at any point re-ingests the
//              query on restart.
//
// Worker threads drain the backlog under lease + heartbeat, running
// cells through per-machine ExperimentRunners that share one cache
// directory, with the campaign engine's deterministic retry/backoff for
// TransientErrors.  Kill -9 the server at any moment: on restart the
// backlog journal replays every completed cell and the submit dir
// re-supplies every unanswered query — no query lost, none answered
// twice, answers bit-identical to an uninterrupted run (pinned by
// tests/sim/service_server_test.cpp and the CI chaos soaks).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fsepoch.hpp"
#include "schemes/factory.hpp"
#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "sim/service/backlog.hpp"
#include "sim/service/index.hpp"
#include "sim/service/lease.hpp"
#include "sim/service/ring.hpp"
#include "sim/service/wire.hpp"

namespace snug::sim::service {

struct ServiceConfig {
  std::string root;       ///< service dir: submit/, answers/, journal
  std::string cache_dir;  ///< shared EvalCache directory
  /// Backlog journal path; "" resolves to <root>/backlog.journal.
  std::string journal;
  unsigned workers = 2;
  std::size_t max_backlog = 256;    ///< admission-control bound (0 = off)
  std::uint64_t lease_ms = 10'000;  ///< unrenewed leases expire after this
  std::uint32_t max_holds = 3;      ///< lease grants before poisoning
  std::uint64_t retry_after_ms = 250;  ///< backoff hint on shed queries
  std::size_t ring_capacity = 1024;    ///< SubmitRing slots (power of two)
  RetryPolicy retry;                ///< TransientError retry/backoff
  bool verbose = false;             ///< supervision log lines to stderr
};

/// Bound on retained answer files: on open, acked answers (no matching
/// submit file) beyond this cap are reaped oldest-name-first — the same
/// pattern as the stores' quarantine bound (kQuarantineCap).
inline constexpr std::size_t kAnswerKeepCap = 256;

class CampaignServer {
 public:
  struct Stats {
    std::uint64_t queries_ingested = 0;
    std::uint64_t queries_answered = 0;  ///< answers published (any status)
    std::uint64_t queries_rejected = 0;  ///< malformed — status=error
    std::uint64_t queries_shed = 0;      ///< admission — status=retry-after
    std::uint64_t cells_from_cache = 0;  ///< index hit path, no simulation
    std::uint64_t cells_simulated = 0;
    std::uint64_t retries = 0;           ///< TransientError re-attempts
    std::uint64_t leases_expired = 0;
    std::uint64_t reassignments = 0;     ///< expiries requeued
    std::uint64_t publish_failures = 0;  ///< answer writes retried
    BacklogScheduler::Counters backlog;
    LeaseTable::Counters leases;
    std::uint64_t journal_replayed = 0;  ///< cells resumed at startup
    std::uint64_t journal_stale_reaped = 0;
    std::uint64_t journal_discarded_bytes = 0;
    std::uint64_t journal_append_failures = 0;
    /// Published cache entries currently visible (EvalCache::refresh()).
    std::uint64_t cache_entries_visible = 0;
    // --- ISSUE 10: batching, ring and index telemetry ---
    std::uint64_t batches_ingested = 0;  ///< query-v2 files accepted
    std::uint64_t parts_total = 0;       ///< batch parts seen (incl. ring)
    std::uint64_t parts_rejected = 0;    ///< per-part status=error at ingest
    std::uint64_t parts_shed = 0;        ///< per-part admission sheds
    std::uint64_t ring_submits = 0;      ///< ops popped off the ring
    std::uint64_t ring_inline_answers = 0;  ///< completed at drain, no backlog
    std::uint64_t ring_backlogged = 0;   ///< ring ops that needed simulation
    std::uint64_t answers_reaped = 0;       ///< acked answers GC'd at open
    std::uint64_t answer_temps_reaped = 0;  ///< dead writers' answer temps
    std::uint64_t submit_scans_skipped = 0;  ///< epoch-gated poller skips
    AnswerIndex::Counters index;
  };

  explicit CampaignServer(ServiceConfig cfg);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// One ingest + supervise + publish pass; returns how much happened
  /// (queries ingested + expiries handled + answers published) so a
  /// caller can detect idleness.  Thread-safe against the workers but
  /// meant to be driven from one serving thread.
  std::size_t poll_once();

  /// Drives poll_once() every poll_ms until request_stop(), or — when
  /// idle_exit_polls > 0 — until that many consecutive passes saw no
  /// progress, no tracked query, no pending cell and no live lease
  /// (campaignd's drain-and-exit mode for scripted/CI use; 0 serves
  /// forever).  Returns the number of passes.
  std::size_t serve(std::size_t idle_exit_polls, std::uint64_t poll_ms);

  /// Makes serve() return after its current pass; workers stop at their
  /// next claim.  Called from a signal-ish context or another thread.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Tier 2 entry point: enqueues a same-process batch op.  False when
  /// the ring is full (backpressure — retry or fall back to the file
  /// wire; see RingClient in sim/service/client.hpp).  After a
  /// successful push the op belongs to the server until its state
  /// leaves kPending; the server completes EVERY accepted op, including
  /// at shutdown (status=error parts), so op->wait() always returns.
  [[nodiscard]] bool ring_submit(RingOp* op);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const AnswerIndex& index() const noexcept { return index_; }

  /// Milliseconds since construction — the lease clock.  Monotonic.
  [[nodiscard]] std::uint64_t now_ms() const;

 private:
  /// A simulation cell's runnable identity (the backlog stores only
  /// strings; workers need the real objects and a runner).
  struct WorkItem {
    trace::WorkloadCombo combo;
    schemes::SchemeSpec scheme;
    ExperimentRunner* runner = nullptr;
  };

  /// Memoised resolution of one (scenario text, scheme id) item: the
  /// parse + validate + combo expansion + fingerprint work that is
  /// identical for every repeat of the item.  Warm ring queries skip
  /// straight from here to index lookups.
  struct ResolvedItem {
    bool ok = false;
    std::string error;  ///< !ok: status=error diagnostic
    ScenarioSpec spec;
    schemes::SchemeSpec scheme;
    std::vector<trace::WorkloadCombo> combos;
    std::vector<std::uint64_t> fps;  ///< run_fingerprint per combo
    std::uint64_t runner_key = 0;
  };

  /// One cell of one part, in combo order.  `resolved` cells carry
  /// their IPCs inline (index hits — never journaled); the rest resolve
  /// through the backlog at publish time.
  struct TrackedCell {
    std::string combo;
    std::uint64_t fp = 0;
    std::vector<double> ipc;
    bool resolved = false;
  };

  struct TrackedPart {
    AnswerStatus status = AnswerStatus::kOk;
    std::string error;
    std::uint64_t retry_after_ms = 0;
    std::vector<TrackedCell> cells;
  };

  /// One client query being tracked until every part resolves.
  struct TrackedQuery {
    std::string id;
    /// The query's dialect, which its answer is encoded in (ring ops
    /// are batches).
    WireDialect dialect = WireDialect::kV2;
    RingOp* ring = nullptr;  ///< non-null: complete in memory
    std::vector<TrackedPart> parts;
  };

  /// Outcome of admit().
  enum class Admission {
    kAnswered,       ///< every part resolved; the answer is out
    kPublishFailed,  ///< every part resolved; the answer file failed
    kPending,        ///< some cell waits on the backlog: track it
  };

  std::size_t ingest();
  std::size_t supervise();
  std::size_t publish();
  void worker_loop(const std::stop_token& stop, unsigned wid);
  void ring_loop(const std::stop_token& stop);
  void handle_ring_op(RingOp* op);
  void run_cell(unsigned wid, const BacklogCell& cell);
  ExperimentRunner& runner_for(const ScenarioSpec& spec,
                               std::uint64_t runner_key);
  [[nodiscard]] std::shared_ptr<const ResolvedItem> resolve_item(
      const BatchItem& item);
  /// Builds one part: resolve, index-lookup each cell, admit the
  /// misses (whole-part shed on admission refusal).  `allow_refresh`
  /// lets a miss trigger one index epoch check (the ring path, which
  /// does not ride the poller's per-pass refresh).
  [[nodiscard]] TrackedPart build_part(const BatchItem& item,
                                       bool allow_refresh);
  /// The one admission path of the file wire and the ring: builds a
  /// part per item into `tq`, counts parts_*, and answers at once when
  /// every part resolved (warm, rejected or shed parts need no pass).
  [[nodiscard]] Admission admit(TrackedQuery& tq,
                                const std::vector<BatchItem>& items,
                                bool allow_refresh);
  /// Query counters of an admitted file-wire query.
  void count_wire_query(const TrackedQuery& tq, Admission admission);
  /// True when every part is resolved; fills the complete answer
  /// (poisoned cells turn their part status=error, healthy cells stay).
  [[nodiscard]] bool collect_answer(const TrackedQuery& tq,
                                    ServiceBatchAnswer& out);
  /// Publishes/completes a fully collected answer: wire queries get
  /// their answer file + submit retirement; ring ops complete in
  /// memory (file first when op->publish).  False on a failed publish
  /// (retried next pass).
  [[nodiscard]] bool finish_tracked(const TrackedQuery& tq,
                                    const ServiceBatchAnswer& answer);
  bool publish_text(const std::string& id, const std::string& text);
  /// Open-time answer-directory GC (see kAnswerKeepCap).
  void gc_answers();

  const ServiceConfig cfg_;
  const fault::Env* env_;
  const std::chrono::steady_clock::time_point start_;

  BacklogScheduler backlog_;
  LeaseTable lease_;
  AnswerIndex index_;
  SubmitRing ring_;

  mutable std::mutex runners_mu_;
  std::map<std::uint64_t, std::unique_ptr<ExperimentRunner>> runners_;

  std::mutex resolve_mu_;
  std::unordered_map<std::string, std::shared_ptr<const ResolvedItem>>
      resolve_memo_;

  mutable std::mutex state_mu_;
  std::map<std::uint64_t, WorkItem> work_;      ///< fp -> how to run it
  std::map<std::string, TrackedQuery> tracked_;  ///< id -> open query
  std::map<std::string, bool> answered_;         ///< ids already answered

  /// Submit-poller epoch (serving thread only): the directory is listed
  /// only when its stat signature moved or is too young to trust
  /// (common/fsepoch.hpp).  A failed reject-publish or query read
  /// forces the next pass to rescan (the file must be retried even
  /// though the directory did not change).
  DirEpoch submit_epoch_;
  bool submit_force_rescan_ = false;

  std::atomic<std::uint64_t> cells_from_cache_{0};
  std::atomic<std::uint64_t> cells_simulated_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> leases_expired_{0};
  std::atomic<std::uint64_t> reassignments_{0};
  std::atomic<std::uint64_t> publish_failures_{0};
  std::atomic<std::uint64_t> queries_ingested_{0};
  std::atomic<std::uint64_t> queries_answered_{0};
  std::atomic<std::uint64_t> queries_rejected_{0};
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> batches_ingested_{0};
  std::atomic<std::uint64_t> parts_total_{0};
  std::atomic<std::uint64_t> parts_rejected_{0};
  std::atomic<std::uint64_t> parts_shed_{0};
  std::atomic<std::uint64_t> ring_submits_{0};
  std::atomic<std::uint64_t> ring_inline_answers_{0};
  std::atomic<std::uint64_t> ring_backlogged_{0};
  std::atomic<std::uint64_t> answers_reaped_{0};
  std::atomic<std::uint64_t> answer_temps_reaped_{0};
  std::atomic<std::uint64_t> submit_scans_skipped_{0};
  std::atomic<std::uint64_t> seq_{0};  ///< unique answer temp names
  std::atomic<bool> stop_{false};

  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;  ///< pending work for workers

  /// Ring drain parking (eventcount-lite): producers bump ring_pushes_
  /// after a push and notify only when the drain thread has parked.
  std::atomic<std::uint64_t> ring_pushes_{0};
  std::atomic<bool> drain_parked_{false};

  /// Declared last: workers and the ring drain must be joined (jthread
  /// dtor order) before any member they touch is destroyed.
  std::vector<std::jthread> workers_;
  std::jthread ring_thread_;
};

}  // namespace snug::sim::service
