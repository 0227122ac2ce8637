// CampaignServer end-to-end tests (ISSUE 9 tentpole acceptance): the
// file-based submit/answer round trip produces exactly the IPCs a
// direct ExperimentRunner computes; a second server instance answers
// from the shared EvalCache without simulating; admission control sheds
// with an explicit retry-after; a cell that fails past the retry budget
// poisons into a status=error answer instead of hanging; an expired
// lease reassigns the cell and the answer is still exact; a server
// destroyed mid-backlog resumes — journal + surviving submit files —
// into byte-identical answers; and a corrupt cache entry degrades to
// recompute-and-heal, never a wrong answer.
#include "sim/service/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/service/wire.hpp"

namespace snug::sim::service {
namespace {

namespace fs = std::filesystem;

constexpr const char* kScenarioA =
    "cores=4 workload=gzip+mesa+gzip+mesa warmup-cycles=10000 "
    "measure-cycles=40000";
constexpr const char* kScenarioB =
    "cores=4 workload=ammp+gzip+mesa+ammp warmup-cycles=10000 "
    "measure-cycles=40000";

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path(const char* sub) const {
    return (dir / sub).string();
  }
  fs::path dir;
};

ServiceConfig small_config(const TempDir& tmp) {
  ServiceConfig cfg;
  cfg.root = tmp.path("svc");
  cfg.cache_dir = tmp.path("cache");
  cfg.workers = 2;
  return cfg;
}

/// Serves until `answer` for `id` lands (or 30 s pass — fails the test).
ServiceAnswer serve_until_answered(CampaignServer& server,
                                   const std::string& root,
                                   const std::string& id) {
  ServiceClient client(root);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });
  ServiceAnswer answer;
  const bool got = client.wait(id, answer, /*timeout_ms=*/30'000);
  server.request_stop();
  serving.join();
  EXPECT_TRUE(got) << "no answer for " << id << " within 30 s";
  return answer;
}

/// The reference: the same scenario x scheme run directly, no service.
std::vector<AnswerCell> direct_cells(const std::string& scenario_text,
                                     const std::string& scheme_id) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario(scenario_text, spec, error)) << error;
  schemes::SchemeSpec scheme;
  EXPECT_TRUE(schemes::parse_scheme_id(scheme_id, scheme));
  ExperimentRunner runner(spec, /*cache_dir=*/"", /*warm_bank_dir=*/"");
  std::vector<AnswerCell> cells;
  for (const trace::WorkloadCombo& combo : spec.combos()) {
    const RunResult r = runner.run(combo, scheme);
    cells.push_back({combo.name, r.ipc});
  }
  return cells;
}

void expect_cells_equal(const std::vector<AnswerCell>& got,
                        const std::vector<AnswerCell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].combo, want[i].combo);
    EXPECT_EQ(got[i].ipc, want[i].ipc)
        << got[i].combo << ": service and direct IPCs must be bit-equal";
  }
}

bool submit(const std::string& root, const std::string& id,
            const std::string& scenario, const std::string& scheme) {
  ServiceClient client(root);
  ServiceQuery q;
  q.id = id;
  q.scenario_text = scenario;
  q.scheme_id = scheme;
  std::string error;
  const bool ok = client.submit(q, &error);
  EXPECT_TRUE(ok) << error;
  return ok;
}

TEST(CampaignServerTest, AnswersMatchDirectSimulationBitExactly) {
  TempDir tmp("snug_service_e2e");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "SNUG"));
  const ServiceAnswer a = serve_until_answered(server, cfg.root, "q1");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  expect_cells_equal(a.cells, direct_cells(kScenarioA, "SNUG"));
  // The submit file is retired only after the answer is published.
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "q1")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "q1")));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.queries_answered, 1u);
  EXPECT_EQ(s.cells_simulated, 1u);
  EXPECT_GE(s.cache_entries_visible, 1u);
}

TEST(CampaignServerTest, MalformedQueriesAnswerStatusError) {
  TempDir tmp("snug_service_reject");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "bad-scheme", kScenarioA, "NOPE"));
  const ServiceAnswer a =
      serve_until_answered(server, cfg.root, "bad-scheme");
  EXPECT_EQ(a.status, AnswerStatus::kError);
  EXPECT_NE(a.error.find("NOPE"), std::string::npos) << a.error;
  EXPECT_EQ(server.stats().queries_rejected, 1u);
}

TEST(CampaignServerTest, SecondServerAnswersFromSharedCache) {
  TempDir tmp("snug_service_shared_cache");
  const ServiceConfig cfg = small_config(tmp);
  ServiceAnswer first;
  {
    CampaignServer server(cfg);
    ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "L2P"));
    first = serve_until_answered(server, cfg.root, "q1");
    ASSERT_EQ(first.status, AnswerStatus::kOk) << first.error;
  }
  // A different server instance — fresh root and journal, no shared
  // memory — sees the first server's cache entries (multi-process
  // EvalCache read-sharing) and answers without simulating.
  ServiceConfig cfg2 = cfg;
  cfg2.root = tmp.path("svc2");
  CampaignServer server2(cfg2);
  ASSERT_TRUE(submit(cfg2.root, "q2", kScenarioA, "L2P"));
  const ServiceAnswer second =
      serve_until_answered(server2, cfg2.root, "q2");
  ASSERT_EQ(second.status, AnswerStatus::kOk) << second.error;
  expect_cells_equal(second.cells, first.cells);
  const CampaignServer::Stats s = server2.stats();
  EXPECT_EQ(s.cells_from_cache, 1u);
  EXPECT_EQ(s.cells_simulated, 0u);
}

TEST(CampaignServerTest, FullBacklogShedsWithRetryAfter) {
  TempDir tmp("snug_service_shed");
  // One worker wedged by a stall holds the only backlog slot.
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      fault::FaultPlan::parse("seed=2; stall@task:ms=400", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 1;
  cfg.max_backlog = 1;
  cfg.retry_after_ms = 123;
  CampaignServer server(cfg);
  ServiceClient client(cfg.root);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });

  ASSERT_TRUE(submit(cfg.root, "slow", kScenarioA, "SNUG"));
  // Let the slow query occupy the backlog before the burst arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(submit(cfg.root, "burst", kScenarioB, "SNUG"));

  ServiceAnswer shed;
  ASSERT_TRUE(client.wait("burst", shed, /*timeout_ms=*/10'000));
  EXPECT_EQ(shed.status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(shed.retry_after_ms, 123u);
  EXPECT_TRUE(shed.cells.empty());

  // The wedged query still completes; shedding degraded, it didn't drop.
  ServiceAnswer slow;
  ASSERT_TRUE(client.wait("slow", slow, /*timeout_ms=*/30'000));
  EXPECT_EQ(slow.status, AnswerStatus::kOk) << slow.error;
  EXPECT_EQ(server.stats().queries_shed, 1u);

  // The backlog has drained: resubmitting the shed query now succeeds.
  ASSERT_TRUE(submit(cfg.root, "burst2", kScenarioB, "SNUG"));
  ServiceAnswer retry;
  ASSERT_TRUE(client.wait("burst2", retry, /*timeout_ms=*/30'000));
  EXPECT_EQ(retry.status, AnswerStatus::kOk) << retry.error;
  server.request_stop();
  serving.join();
}

TEST(CampaignServerTest, RetryExhaustionPoisonsIntoAnErrorAnswer) {
  TempDir tmp("snug_service_poison");
  fault::FaultPlan plan;
  std::string error;
  // Every attempt at this cell throws: the retry budget exhausts and
  // the cell poisons — graceful degradation to an explicit error.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=5; fail@task", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_ms = 1;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "doomed", kScenarioA, "SNUG"));
  const ServiceAnswer a = serve_until_answered(server, cfg.root, "doomed");
  EXPECT_EQ(a.status, AnswerStatus::kError);
  EXPECT_NE(a.error.find("gave up after 2 attempts"), std::string::npos)
      << a.error;
  EXPECT_NE(a.error.find("/SNUG"), std::string::npos)
      << "the error names the poisoned cell: " << a.error;
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.backlog.poisoned, 1u);
}

TEST(CampaignServerTest, ExpiredLeaseReassignsAndStillAnswersExactly) {
  TempDir tmp("snug_service_lease_expiry");
  fault::FaultPlan plan;
  std::string error;
  // Only the FIRST run of the cell stalls past the lease; the
  // reassigned run is clean (first=1 counts per operation key).
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; stall@task:ms=400,first=1",
                                      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.lease_ms = 60;
  cfg.max_holds = 5;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "SNUG"));
  const ServiceAnswer a = serve_until_answered(server, cfg.root, "q1");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  expect_cells_equal(a.cells, direct_cells(kScenarioA, "SNUG"));
  const CampaignServer::Stats s = server.stats();
  EXPECT_GE(s.leases_expired, 1u) << "the stalled holder must age out";
  EXPECT_GE(s.reassignments, 1u);
  EXPECT_GE(s.leases.granted, 2u);
}

TEST(CampaignServerTest, KilledMidBacklogResumesByteIdentically) {
  TempDir tmp("snug_service_resume");
  // Reference: one uninterrupted server in its own directories.
  ServiceConfig clean_cfg = small_config(tmp);
  clean_cfg.root = tmp.path("clean_svc");
  clean_cfg.cache_dir = tmp.path("clean_cache");
  std::string clean_bytes;
  {
    CampaignServer clean(clean_cfg);
    ASSERT_TRUE(submit(clean_cfg.root, "big",
                       "cores=4 workload=1A+1C variants=4 "
                       "warmup-cycles=10000 measure-cycles=40000",
                       "SNUG"));
    const ServiceAnswer a =
        serve_until_answered(clean, clean_cfg.root, "big");
    ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
    ASSERT_EQ(a.cells.size(), 4u);
    clean_bytes = encode_answer(a);
  }

  // Victim: same query, one worker, destroyed after the first cells
  // complete but before the answer exists — the in-process equivalent
  // of kill -9 mid-backlog (completed cells are journaled, the answer
  // is not published, the submit file survives).
  const ServiceConfig cfg = [&] {
    ServiceConfig c = small_config(tmp);
    c.workers = 1;
    return c;
  }();
  {
    CampaignServer victim(cfg);
    ASSERT_TRUE(submit(cfg.root, "big",
                       "cores=4 workload=1A+1C variants=4 "
                       "warmup-cycles=10000 measure-cycles=40000",
                       "SNUG"));
    std::jthread serving([&victim] { victim.serve(0, 1); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (victim.stats().backlog.completed < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(victim.stats().backlog.completed, 2u);
    victim.request_stop();
    serving.join();
    ASSERT_FALSE(fs::exists(answer_path(cfg.root, "big")))
        << "the victim must die before publishing";
    ASSERT_TRUE(fs::exists(query_path(cfg.root, "big")))
        << "the submit file is the durable record of the query";
  }

  // Restart: same directories.  The journal replays the completed
  // cells, the submit file re-supplies the query, only the missing
  // cells simulate — and the answer is byte-identical to the clean
  // run's.
  CampaignServer resumed(cfg);
  const ServiceAnswer a = serve_until_answered(resumed, cfg.root, "big");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  EXPECT_EQ(encode_answer(a), clean_bytes);
  const CampaignServer::Stats s = resumed.stats();
  EXPECT_GE(s.backlog.journal_hits + s.cells_from_cache, 2u)
      << "completed cells must come back from journal or cache, not "
         "re-simulation";
  EXPECT_LE(s.cells_simulated, 2u);
}

TEST(CampaignServerTest, CorruptCacheEntryRecomputesAndHeals) {
  TempDir tmp("snug_service_corrupt_cache");
  const ServiceConfig cfg = small_config(tmp);
  std::string good_bytes;
  {
    CampaignServer server(cfg);
    ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "DSR"));
    const ServiceAnswer a = serve_until_answered(server, cfg.root, "q1");
    ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
    good_bytes = encode_answer(a);
  }
  // Rot one payload byte of the (only) published cache entry.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(cfg.cache_dir)) {
    if (e.path().extension() == ".snugc") entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);  // past the 24-byte header, into the payload
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(30);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  // A fresh server probes the entry, rejects it on CRC (quarantining
  // it), recomputes, and re-publishes — the answer never changes.
  ServiceConfig cfg2 = cfg;
  cfg2.root = tmp.path("svc2");
  CampaignServer server2(cfg2);
  ASSERT_TRUE(submit(cfg2.root, "q1", kScenarioA, "DSR"));
  const ServiceAnswer healed =
      serve_until_answered(server2, cfg2.root, "q1");
  ASSERT_EQ(healed.status, AnswerStatus::kOk) << healed.error;
  EXPECT_EQ(encode_answer(healed), good_bytes);
  const CampaignServer::Stats s = server2.stats();
  EXPECT_EQ(s.cells_from_cache, 0u) << "the rotten entry must not serve";
  EXPECT_EQ(s.cells_simulated, 1u);
  EXPECT_TRUE(fs::exists(fs::path(cfg.cache_dir) / "quarantine"))
      << "the corrupt entry is quarantined, not deleted";
}

bool submit_batch(const std::string& root, const std::string& id,
                  const std::vector<BatchItem>& items) {
  ServiceClient client(root);
  ServiceBatchQuery q;
  q.id = id;
  q.items = items;
  std::string error;
  const bool ok = client.submit_batch(q, &error);
  EXPECT_TRUE(ok) << error;
  return ok;
}

/// Batch counterpart of serve_until_answered.
ServiceBatchAnswer serve_until_batch_answered(CampaignServer& server,
                                              const std::string& root,
                                              const std::string& id) {
  ServiceClient client(root);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });
  ServiceBatchAnswer answer;
  const bool got = client.wait_batch(id, answer, /*timeout_ms=*/30'000);
  server.request_stop();
  serving.join();
  EXPECT_TRUE(got) << "no batch answer for " << id << " within 30 s";
  return answer;
}

TEST(CampaignServerBatchTest, MixedPartsAnswerPerPartStatuses) {
  TempDir tmp("snug_service_batch_mixed");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  // Part 1 is malformed (unknown scheme): it must answer status=error
  // WITHOUT dragging the healthy parts down with it.
  ASSERT_TRUE(submit_batch(cfg.root, "sweep",
                           {{kScenarioA, "SNUG"},
                            {kScenarioA, "NOPE"},
                            {kScenarioB, "SNUG"}}));
  const ServiceBatchAnswer a =
      serve_until_batch_answered(server, cfg.root, "sweep");
  ASSERT_EQ(a.parts.size(), 3u);
  ASSERT_EQ(a.parts[0].status, AnswerStatus::kOk) << a.parts[0].error;
  expect_cells_equal(a.parts[0].cells, direct_cells(kScenarioA, "SNUG"));
  EXPECT_EQ(a.parts[1].status, AnswerStatus::kError);
  EXPECT_NE(a.parts[1].error.find("NOPE"), std::string::npos)
      << a.parts[1].error;
  EXPECT_TRUE(a.parts[1].cells.empty());
  ASSERT_EQ(a.parts[2].status, AnswerStatus::kOk) << a.parts[2].error;
  expect_cells_equal(a.parts[2].cells, direct_cells(kScenarioB, "SNUG"));
  // The batch's submit file retires exactly like a v1 query's.
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "sweep")));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.batches_ingested, 1u);
  EXPECT_EQ(s.parts_total, 3u);
  EXPECT_EQ(s.parts_rejected, 1u);
  EXPECT_EQ(s.parts_shed, 0u);
}

TEST(CampaignServerBatchTest, AdmissionShedsWholePartsNotCells) {
  TempDir tmp("snug_service_batch_shed");
  // Every cell stalls 400 ms, so part 0's admission still holds the
  // only backlog slot when part 1 asks.
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      fault::FaultPlan::parse("seed=2; stall@task:ms=400", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 1;
  cfg.max_backlog = 1;
  cfg.retry_after_ms = 123;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit_batch(cfg.root, "burst",
                           {{kScenarioA, "SNUG"}, {kScenarioB, "SNUG"}}));
  const ServiceBatchAnswer a =
      serve_until_batch_answered(server, cfg.root, "burst");
  ASSERT_EQ(a.parts.size(), 2u);
  ASSERT_EQ(a.parts[0].status, AnswerStatus::kOk) << a.parts[0].error;
  expect_cells_equal(a.parts[0].cells, direct_cells(kScenarioA, "SNUG"));
  EXPECT_EQ(a.parts[1].status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(a.parts[1].retry_after_ms, 123u);
  EXPECT_TRUE(a.parts[1].cells.empty())
      << "a shed part is whole-part: no cells, not even warm hits";
  EXPECT_EQ(server.stats().parts_shed, 1u);
}

TEST(CampaignServerBatchTest, V1ClientsStillGetByteIdenticalV1Answers) {
  TempDir tmp("snug_service_batch_v1pin");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  // One serving session answers a v1 client and a v2 client side by
  // side: the format each gets back is decided per query, not per
  // server.
  ASSERT_TRUE(submit(cfg.root, "old", kScenarioA, "SNUG"));
  ASSERT_TRUE(submit_batch(cfg.root, "new", {{kScenarioA, "SNUG"}}));
  ServiceClient client(cfg.root);
  ServiceAnswer a;
  ServiceBatchAnswer b;
  {
    std::jthread serving(
        [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });
    ASSERT_TRUE(client.wait("old", a, /*timeout_ms=*/30'000));
    ASSERT_TRUE(client.wait_batch("new", b, /*timeout_ms=*/30'000));
    server.request_stop();
  }
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  ASSERT_EQ(b.parts.size(), 1u);
  ASSERT_EQ(b.parts[0].status, AnswerStatus::kOk) << b.parts[0].error;
  expect_cells_equal(b.parts[0].cells, a.cells);

  // Compat pin: each served file is the literal layout of its dialect,
  // written out by hand from the direct-simulation IPCs — not derived
  // from the encoder, so encoder drift shows here too.
  const std::vector<AnswerCell> direct = direct_cells(kScenarioA, "SNUG");
  ASSERT_EQ(direct.size(), 1u);
  std::string ipc_list;
  for (std::size_t i = 0; i < direct[0].ipc.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, i == 0 ? "%.17g" : ",%.17g",
                  direct[0].ipc[i]);
    ipc_list += buf;
  }
  const auto served = [&](const char* id) {
    std::ifstream in(answer_path(cfg.root, id), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(served("old"), "answer-v1\nid=old\nstatus=ok\ncell=" +
                               direct[0].combo + " ipc=" + ipc_list + "\n")
      << "v1 queries must answer answer-v1 bytes, never v2";
  EXPECT_EQ(served("new"), "answer-v2\nid=new\nparts=1\npart=0 status=ok\n"
                           "cell=0/" +
                               direct[0].combo + " ipc=" + ipc_list + "\n");
}

TEST(CampaignServerTest, OpenReapsAckedAnswersOverTheRetentionCap) {
  TempDir tmp("snug_service_answer_gc");
  const ServiceConfig cfg = small_config(tmp);
  ServiceClient client(cfg.root);  // creates submit/ and answers/
  // 260 acked answers (no submit file) + one still-awaiting-pickup
  // answer whose submit file is live; the cap is kAnswerKeepCap (256).
  for (int i = 0; i < 260; ++i) {
    char id[16];
    std::snprintf(id, sizeof id, "g%03d", i);
    std::ofstream(answer_path(cfg.root, id), std::ios::binary)
        << "answer-v1\nid=" << id << "\nstatus=ok\n";
  }
  std::ofstream(query_path(cfg.root, "g000"), std::ios::binary)
      << "query-v1\nid=g000\nscenario=cores=4\nscheme=SNUG\n";

  CampaignServer server(cfg);
  std::size_t kept = 0;
  for (const auto& e : fs::directory_iterator(answer_dir(cfg.root))) {
    if (e.path().extension() == ".answer") ++kept;
  }
  EXPECT_EQ(kept, kAnswerKeepCap);
  EXPECT_EQ(server.stats().answers_reaped, 4u);
  // The oldest names go first — but never one a client still awaits.
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g000")))
      << "a live submit file pins its answer";
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "g001")));
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "g004")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g005")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g259")));
}

}  // namespace
}  // namespace snug::sim::service
