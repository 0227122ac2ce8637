// campaignd — the campaign-as-a-service daemon (ISSUE 9 tentpole).
//
// A long-lived process that owns the shared EvalCache and a crash-safe
// simulation backlog.  Clients drop ScenarioSpec x scheme query files
// into <dir>/submit/ (wire protocol: src/sim/service/wire.hpp) and poll
// <dir>/answers/; cache-resident queries are answered immediately,
// misses are deduplicated into the journaled backlog and simulated by
// lease-supervised workers.  Kill -9 this process at any moment and
// restart it with the same flags: the backlog journal replays every
// completed cell and the surviving submit files re-supply every
// unanswered query — no query lost, none answered twice, answers
// bit-identical to an uninterrupted run (the CI chaos soak pins this).
//
//   campaignd --dir=svc --workers=4                 # serve forever
//   campaignd --dir=svc --idle-exit-polls=50        # drain and exit
//   campaignd --dir=svc --fault-plan="seed=7; enospc@write:p=0.1"
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/fault.hpp"
#include "sim/runner.hpp"
#include "sim/service/client.hpp"
#include "sim/service/server.hpp"
#include "sim/service/wire.hpp"

namespace {

snug::sim::service::CampaignServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snug;
  CliArgs args(argc, argv);
  sim::service::ServiceConfig cfg;
  cfg.root = args.get_string(
      "dir", ".snug_campaignd",
      "service directory: submit/, answers/, backlog journal");
  cfg.cache_dir = args.get_string(
      "cache-dir", sim::default_cache_dir(),
      "shared simulation result cache (clients of other processes see "
      "entries this server publishes, and vice versa)");
  cfg.journal = args.get_string(
      "journal", "", "backlog journal path (default <dir>/backlog.journal)");
  cfg.workers = static_cast<unsigned>(
      args.get_int("workers", 2, "simulation worker threads"));
  cfg.max_backlog = static_cast<std::size_t>(args.get_int(
      "max-backlog", 256,
      "admission control: pending+leased cell bound; queries whose fresh "
      "cells would exceed it answer status=retry-after (0 = unbounded)"));
  cfg.lease_ms = static_cast<std::uint64_t>(args.get_int(
      "lease-ms", 10'000,
      "worker lease: a task whose lease goes unrenewed this long is "
      "reassigned to another worker"));
  cfg.max_holds = static_cast<std::uint32_t>(args.get_int(
      "max-holds", 3,
      "poison a task after this many lease grants (caps reassign loops)"));
  cfg.retry.max_attempts = static_cast<unsigned>(args.get_int(
      "retry-attempts", 3,
      "max attempts per cell on an injected transient failure"));
  cfg.retry.backoff_ms = static_cast<std::uint64_t>(args.get_int(
      "retry-backoff-ms", 10,
      "first retry backoff in ms, doubling per attempt (no jitter)"));
  cfg.retry_after_ms = static_cast<std::uint64_t>(args.get_int(
      "retry-after-ms", 250, "backoff hint sent with shed queries"));
  const std::int64_t poll_ms =
      args.get_int("poll-ms", 20, "serving-loop poll interval");
  const std::int64_t idle_exit = args.get_int(
      "idle-exit-polls", 0,
      "exit after this many consecutive idle polls — no new queries, "
      "empty backlog, no live lease (0 = serve until SIGINT/SIGTERM)");
  const std::string fault_plan_text = args.get_string(
      "fault-plan", "",
      "deterministic fault-injection plan (grammar in src/common/fault.hpp; "
      "service ops: fail@lease, fail@heartbeat)");
  const std::string ring_queries_file = args.get_string(
      "ring-queries", "",
      "submit the '<scheme>|<scenario>' lines of this file as ONE "
      "query-v2 batch through the in-process submit ring (publish=true: "
      "the answer file lands in <dir>/answers/ for kill/resume "
      "byte-diffing), then keep serving");
  const std::string ring_id = args.get_string(
      "ring-id", "ring-batch", "query id of the --ring-queries batch");
  const bool quiet = args.get_bool("quiet", false, "suppress the stats line");
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  args.check_unknown();

  fault::FaultPlan plan;
  if (!fault_plan_text.empty()) {
    std::string error;
    if (!fault::FaultPlan::parse(fault_plan_text, plan, error)) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
      return 2;
    }
  }
  // Install before the server exists: the backlog journal and every
  // runner's stores capture fault::env() at construction.
  std::optional<fault::ScopedFaultPlan> faults;
  if (!plan.empty()) faults.emplace(plan);

  sim::service::ServiceBatchQuery ring_batch;
  ring_batch.id = ring_id;
  if (!ring_queries_file.empty()) {
    std::ifstream in(ring_queries_file);
    if (!in.good()) {
      std::fprintf(stderr, "campaignd: cannot read --ring-queries=%s\n",
                   ring_queries_file.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      sim::service::BatchItem item;
      if (!sim::service::parse_batch_item(line, item)) {
        std::fprintf(stderr,
                     "campaignd: bad --ring-queries line '%s' (want "
                     "<scheme>|<scenario>)\n",
                     line.c_str());
        return 2;
      }
      ring_batch.items.push_back(std::move(item));
    }
    if (ring_batch.items.empty()) {
      std::fprintf(stderr, "campaignd: --ring-queries=%s has no items\n",
                   ring_queries_file.c_str());
      return 2;
    }
  }

  // The ring client thread must JOIN after the server is destroyed: a
  // server killed by a signal mid-batch completes every accepted ring
  // op (status=error) only in its destructor, and the op's storage
  // lives on the client thread's stack.
  std::thread ringer;
  bool ring_ok = false;
  std::string ring_error;
  sim::service::ServiceBatchAnswer ring_answer;
  std::size_t passes = 0;
  sim::service::CampaignServer::Stats s;
  {
    sim::service::CampaignServer server(cfg);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (!quiet) {
      std::fprintf(stderr,
                   "campaignd: serving %s (cache %s, %u worker(s), backlog "
                   "cap %zu, lease %llu ms, %s)\n",
                   cfg.root.c_str(), cfg.cache_dir.c_str(), cfg.workers,
                   cfg.max_backlog,
                   static_cast<unsigned long long>(cfg.lease_ms),
                   idle_exit > 0 ? "drain-and-exit" : "until signalled");
    }
    if (!ring_batch.items.empty()) {
      ringer = std::thread([&server, &ring_batch, &ring_ok, &ring_answer,
                            &ring_error] {
        sim::service::RingClient ring(server);
        ring_ok = ring.query(ring_batch, ring_answer, /*publish=*/true,
                             &ring_error);
      });
    }
    passes = server.serve(
        idle_exit > 0 ? static_cast<std::size_t>(idle_exit) : 0,
        poll_ms > 0 ? static_cast<std::uint64_t>(poll_ms) : 1);
    s = server.stats();
    g_server = nullptr;
  }
  if (ringer.joinable()) ringer.join();
  if (!ring_batch.items.empty() && !quiet) {
    std::size_t ok_parts = 0;
    for (const sim::service::BatchPart& p : ring_answer.parts) {
      if (p.status == sim::service::AnswerStatus::kOk) ++ok_parts;
    }
    std::fprintf(stderr,
                 "campaignd: ring batch '%s': %zu item(s), %zu part(s) "
                 "answered ok%s%s\n",
                 ring_batch.id.c_str(), ring_batch.items.size(), ok_parts,
                 ring_ok ? "" : "; submit failed: ",
                 ring_ok ? "" : ring_error.c_str());
  }
  if (!quiet) {
    std::fprintf(
        stderr,
        "campaignd: %zu poll(s): %llu ingested, %llu answered (%llu "
        "rejected, %llu shed); cells %llu cached / %llu simulated / %llu "
        "journal-replayed, %llu retries; leases %llu granted / %llu "
        "denied / %llu expired (%llu reassigned, %llu poisoned); journal "
        "%llu stale reaped, %llu torn byte(s), %llu append failure(s); "
        "%llu cache entr(ies) visible\n",
        passes, static_cast<unsigned long long>(s.queries_ingested),
        static_cast<unsigned long long>(s.queries_answered),
        static_cast<unsigned long long>(s.queries_rejected),
        static_cast<unsigned long long>(s.queries_shed),
        static_cast<unsigned long long>(s.cells_from_cache),
        static_cast<unsigned long long>(s.cells_simulated),
        static_cast<unsigned long long>(s.backlog.journal_hits),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.leases.granted),
        static_cast<unsigned long long>(s.leases.denied),
        static_cast<unsigned long long>(s.leases_expired),
        static_cast<unsigned long long>(s.reassignments),
        static_cast<unsigned long long>(s.leases.poisoned),
        static_cast<unsigned long long>(s.journal_stale_reaped),
        static_cast<unsigned long long>(s.journal_discarded_bytes),
        static_cast<unsigned long long>(s.journal_append_failures),
        static_cast<unsigned long long>(s.cache_entries_visible));
    std::fprintf(
        stderr,
        "campaignd: ring %llu submit(s) (%llu inline, %llu backlogged); "
        "batches %llu (%llu part(s): %llu rejected, %llu shed); index "
        "%llu entr(ies), %llu hit(s) / %llu miss(es), %llu rescan(s) "
        "over %llu epoch check(s); %llu submit scan(s) skipped; answers "
        "%llu reaped, %llu orphaned temp(s)\n",
        static_cast<unsigned long long>(s.ring_submits),
        static_cast<unsigned long long>(s.ring_inline_answers),
        static_cast<unsigned long long>(s.ring_backlogged),
        static_cast<unsigned long long>(s.batches_ingested),
        static_cast<unsigned long long>(s.parts_total),
        static_cast<unsigned long long>(s.parts_rejected),
        static_cast<unsigned long long>(s.parts_shed),
        static_cast<unsigned long long>(s.index.entries),
        static_cast<unsigned long long>(s.index.hits),
        static_cast<unsigned long long>(s.index.misses),
        static_cast<unsigned long long>(s.index.rescans),
        static_cast<unsigned long long>(s.index.epoch_checks),
        static_cast<unsigned long long>(s.submit_scans_skipped),
        static_cast<unsigned long long>(s.answers_reaped),
        static_cast<unsigned long long>(s.answer_temps_reaped));
    if (faults.has_value()) {
      const fault::FaultStats f = faults->stats();
      std::fprintf(stderr, "campaignd: %llu fault(s) injected\n",
                   static_cast<unsigned long long>(f.total()));
    }
  }
  g_server = nullptr;
  return 0;
}
