// ISSUE 8 fault-injection suite: the deterministic fault seam
// (common/fault.hpp) and the recovery behaviour it forces out of the
// stores and the campaign engine — short writes, poisoned reads and
// torn renames self-heal, injected transient task failures retry, a
// seeded faulty campaign is bit-identical to a clean one, and a wedged
// worker is flagged (not killed) by the executor watchdog.
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/runner.hpp"
#include "sim/warm_state.hpp"

namespace snug {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  fs::path dir;
};

// ---- plan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesClausesSeedAndKeys) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=7; short-write@write:p=0.25; "
      "fail@task:match=mixA/SNUG,first=2; stall@read:ms=5,every=3",
      plan, error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.clauses.size(), 3u);
  EXPECT_EQ(plan.clauses[0].kind, fault::Kind::kShortWrite);
  EXPECT_EQ(plan.clauses[0].op, fault::Op::kWrite);
  EXPECT_DOUBLE_EQ(plan.clauses[0].prob, 0.25);
  EXPECT_EQ(plan.clauses[1].kind, fault::Kind::kFail);
  EXPECT_EQ(plan.clauses[1].op, fault::Op::kTask);
  EXPECT_EQ(plan.clauses[1].match, "mixA/SNUG");
  EXPECT_EQ(plan.clauses[1].first, 2u);
  EXPECT_EQ(plan.clauses[2].stall_ms, 5u);
  EXPECT_EQ(plan.clauses[2].every, 3u);
  // The summary round-trips through the parser.
  fault::FaultPlan again;
  ASSERT_TRUE(fault::FaultPlan::parse(plan.summary(), again, error))
      << plan.summary() << ": " << error;
  EXPECT_EQ(again.summary(), plan.summary());
}

TEST(FaultPlan, ParsesLeaseAndHeartbeatOps) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=4; fail@lease:first=2; stall@heartbeat:ms=3; "
      "fail@heartbeat:match=mixA/SNUG",
      plan, error))
      << error;
  ASSERT_EQ(plan.clauses.size(), 3u);
  EXPECT_EQ(plan.clauses[0].op, fault::Op::kLease);
  EXPECT_EQ(plan.clauses[0].first, 2u);
  EXPECT_EQ(plan.clauses[1].op, fault::Op::kHeartbeat);
  EXPECT_EQ(plan.clauses[1].stall_ms, 3u);
  EXPECT_EQ(plan.clauses[2].match, "mixA/SNUG");
  // The summary round-trips through the parser.
  fault::FaultPlan again;
  ASSERT_TRUE(fault::FaultPlan::parse(plan.summary(), again, error))
      << plan.summary() << ": " << error;
  EXPECT_EQ(again.summary(), plan.summary());
}

TEST(FaultPlan, LeaseAndHeartbeatOpsOnlyAdmitFailAndStall) {
  fault::FaultPlan plan;
  std::string error;
  // Lease grants and heartbeats are supervision calls, not byte
  // streams: the store-corruption kinds make no sense on them.
  EXPECT_FALSE(fault::FaultPlan::parse("short-write@lease", plan, error));
  EXPECT_NE(error.find("lease"), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("bit-flip@heartbeat", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("torn-rename@lease", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("enospc@heartbeat", plan, error));
}

TEST(FaultPlan, LeaseDenialsAndHeartbeatDropsFoldIntoTheTotal) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=8; fail@lease:first=1; fail@heartbeat:first=1", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  EXPECT_TRUE(fault::maybe_deny_lease("mixA/SNUG"));
  EXPECT_FALSE(fault::maybe_deny_lease("mixA/SNUG")) << "first=1 spent";
  EXPECT_TRUE(fault::maybe_drop_heartbeat("mixA/SNUG"));
  EXPECT_FALSE(fault::maybe_drop_heartbeat("mixA/SNUG"));
  const fault::FaultStats stats = scoped.stats();
  EXPECT_EQ(stats.lease_denials, 1u);
  EXPECT_EQ(stats.heartbeat_drops, 1u);
  EXPECT_EQ(stats.total(), 2u);
}

TEST(FaultPlan, RejectsBadClausesWithNamedErrors) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::parse("melt@write", plan, error));
  EXPECT_NE(error.find("melt@write"), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("short-write@read", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("torn-rename@write", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("stall@write", plan, error))
      << "stall requires ms=";
  EXPECT_FALSE(fault::FaultPlan::parse("bit-flip@write:p=2.0", plan,
                                       error));
  EXPECT_FALSE(fault::FaultPlan::parse("bit-flip@write:p=nope", plan,
                                       error));
}

TEST(FaultPlan, RejectsAnEmptyPlanAndReportsNoInstallation) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::parse("", plan, error));
  EXPECT_NE(error.find("no clauses"), std::string::npos) << error;
  EXPECT_FALSE(fault::plan_installed());
  EXPECT_EQ(fault::installed_stats().total(), 0u);
}

bool same_plan(const fault::FaultPlan& a, const fault::FaultPlan& b) {
  return a.seed == b.seed &&
         std::equal(a.clauses.begin(), a.clauses.end(), b.clauses.begin(),
                    b.clauses.end(),
                    [](const fault::Clause& x, const fault::Clause& y) {
                      return x.kind == y.kind && x.op == y.op &&
                             x.prob == y.prob && x.first == y.first &&
                             x.every == y.every &&
                             x.stall_ms == y.stall_ms && x.match == y.match;
                    });
}

// Modelled on Scenario.FuzzedSpecsRejectOrRoundTrip: every mutated or
// spliced plan is either rejected with a non-empty diagnostic, or its
// summary() re-parses to the same plan and reproduces the same summary.
TEST(FaultPlan, FuzzedPlansRejectOrRoundTrip) {
  const std::vector<std::string> corpus = {
      "seed=7; short-write@write:p=0.25; "
      "fail@task:match=mixA/SNUG,first=2; stall@read:ms=5,every=3",
      "seed=4; fail@lease:first=2; stall@heartbeat:ms=3; "
      "fail@heartbeat:match=mixA/SNUG",
      "seed=13; stall@task:ms=3000,first=1,match=gzip+mesa+gzip+mesa/SNUG; "
      "short-write@write:p=0.15; enospc@write:p=0.1",
      "seed=13; short-write@write:p=0.25; bit-flip@read:p=0.2; "
      "fail@task:first=1",
      "torn-rename@rename:every=2",
      "fail@read:p=0.5,match=.entry",
  };
  // Grammar parts spliced in: every kind, op and modifier, and values
  // at and past the edges of each modifier's range.
  const std::vector<std::string> kinds = {
      "short-write", "enospc", "torn-rename", "bit-flip", "stall", "fail"};
  const std::vector<std::string> ops = {"read", "write",  "rename",
                                        "task", "lease", "heartbeat"};
  const std::vector<std::string> keys = {"p", "first", "every", "ms",
                                         "match", "seed"};
  const std::vector<std::string> values = {
      "0", "1", "2", "3000", "0.5", "0.25", "0.1", "0.9999999",
      "0.12345678", "1e-7", "1.0", "-1", "+3", " 7", "nan", "inf", "0x1p-2",
      "18446744073709551615", "18446744073709551616", "mixA/SNUG",
      "a:b", "x@y", ""};
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=@:;,.-+/ ";

  Rng rng(Rng::derive_seed("fault-plan-fuzz"));
  const auto pick = [&](const auto& v) -> const auto& {
    return v[rng.below(v.size())];
  };
  const auto param = [&] { return pick(keys) + "=" + pick(values); };
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = pick(corpus);
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(text.size() + 1);
      switch (rng.below(7)) {
        case 0:  // append a whole clause
          text += "; " + pick(kinds) + "@" + pick(ops) +
                  (rng.chance(0.7) ? ":" + param() : std::string());
          break;
        case 1:  // append a modifier to the last clause
          text += text.find(':') == std::string::npos ? ':' : ',';
          text += param();
          break;
        case 2:  // insert a kind, op, key or value fragment
          switch (rng.below(4)) {
            case 0: text.insert(pos, pick(kinds)); break;
            case 1: text.insert(pos, pick(ops)); break;
            case 2: text.insert(pos, pick(keys)); break;
            default: text.insert(pos, pick(values)); break;
          }
          break;
        case 3:  // insert one character
          text.insert(pos, 1, alphabet[rng.below(alphabet.size())]);
          break;
        case 4:  // delete a short range
          if (pos < text.size()) text.erase(pos, 1 + rng.below(6));
          break;
        case 5:  // replace one character
          if (pos < text.size()) {
            text[pos] = alphabet[rng.below(alphabet.size())];
          }
          break;
        default: {  // splice: this prefix + another plan's suffix
          const std::string& other = pick(corpus);
          text = text.substr(0, pos) +
                 other.substr(rng.below(other.size() + 1));
          break;
        }
      }
    }

    fault::FaultPlan plan;
    std::string error;
    if (!fault::FaultPlan::parse(text, plan, error)) {
      EXPECT_FALSE(error.empty()) << "'" << text << "'";
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string summary = plan.summary();
    fault::FaultPlan reparsed;
    ASSERT_TRUE(fault::FaultPlan::parse(summary, reparsed, error))
        << "'" << text << "' -> '" << summary << "': " << error;
    EXPECT_EQ(reparsed.summary(), summary) << "'" << text << "'";
    EXPECT_TRUE(same_plan(reparsed, plan))
        << "'" << text << "' -> '" << summary << "'";
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 200U);
  EXPECT_GT(rejected, 200U);
}

TEST(FaultPlan, ProbabilitiesAreStrictAndSummariesExact) {
  fault::FaultPlan plan;
  std::string error;
  // NaN compares false against both bounds of (0, 1]; it must still be
  // refused, not read as "always" by summary().
  EXPECT_FALSE(fault::FaultPlan::parse("fail@task:p=nan", plan, error));
  EXPECT_NE(error.find("p="), std::string::npos) << error;
  // Counts are plain digits: no sign, no wrap past 2^64 - 1.
  EXPECT_FALSE(fault::FaultPlan::parse("fail@task:first=+3", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("seed=-1; fail@task", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse(
      "fail@task:every=18446744073709551616", plan, error));
  // A probability needing more than %g's six digits survives summary().
  ASSERT_TRUE(fault::FaultPlan::parse("fail@task:p=0.9999999", plan, error))
      << error;
  EXPECT_EQ(plan.summary(), "seed=0; fail@task:p=0.9999999");
}

// ---- deterministic injection through the Env seam ----------------------

TEST(FaultEnv, ShortWriteIsSilentAndSeedDeterministic) {
  TempDir tmp("snug_fault_env_test");
  fs::create_directories(tmp.dir);
  const std::string path = (tmp.dir / "victim.bin").string();
  const std::string payload(1000, 'x');

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; short-write@write:p=1",
                                      plan, error));
  std::uintmax_t torn_size = 0;
  {
    fault::ScopedFaultPlan scoped(plan);
    // The writer is told the write succeeded — that is the point.
    EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                        payload.size()));
    EXPECT_EQ(scoped.stats().short_writes, 1u);
    torn_size = fs::file_size(path);
    EXPECT_LT(torn_size, payload.size());
  }
  // Same seed, same key, same occurrence → the same torn length.
  fs::remove(path);
  {
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                        payload.size()));
    EXPECT_EQ(fs::file_size(path), torn_size);
  }
  // Plan uninstalled: writes are whole again.
  EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                      payload.size()));
  EXPECT_EQ(fs::file_size(path), payload.size());
}

// ---- store self-healing under injected faults --------------------------

TEST(FaultInjection, EvalCacheHealsShortWrittenEntry) {
  TempDir tmp("snug_fault_cache_short_write");
  const std::vector<double> ipc{1.0, 2.0, 3.0, 4.0};

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=11; short-write@write:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    // Built under the plan so the cache resolves the faulty Env.
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 77, ipc);
  }

  // The torn entry is detected, quarantined (never deleted) and healed
  // by the rewrite.
  const sim::EvalCache cache(tmp.dir.string());
  std::vector<double> out;
  EXPECT_FALSE(cache.load("cell", 77, out));
  EXPECT_EQ(cache.recovery().quarantined, 1u);
  EXPECT_TRUE(fs::exists(tmp.dir / "quarantine"));
  cache.store("cell", 77, ipc);
  ASSERT_TRUE(cache.load("cell", 77, out));
  EXPECT_EQ(out, ipc);
}

TEST(FaultInjection, EvalCachePoisonedReadFallsBackToRecompute) {
  TempDir tmp("snug_fault_cache_bit_flip");
  const std::vector<double> ipc{0.5, 0.25};
  {
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 5, ipc);
  }

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=2; bit-flip@read:p=1", plan,
                                      error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::EvalCache cache(tmp.dir.string());
    std::vector<double> out;
    // Every read is poisoned; the CRC rejects the bytes and the caller
    // falls back to simulation (a cache miss, not a crash).
    EXPECT_FALSE(cache.load("cell", 5, out));
    EXPECT_GE(scoped.stats().bit_flips, 1u);
  }
}

TEST(FaultInjection, TornRenameNeverExposesAPartialEntry) {
  TempDir tmp("snug_fault_cache_torn_rename");
  const std::vector<double> ipc{9.0};

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=4; torn-rename@rename:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 1, ipc);  // publish rename suppressed
    EXPECT_EQ(scoped.stats().torn_renames, 1u);
    std::vector<double> out;
    // The entry simply never appeared — a clean miss, no torn bytes.
    EXPECT_FALSE(cache.load("cell", 1, out));
  }
  const sim::EvalCache cache(tmp.dir.string());
  EXPECT_EQ(cache.recovery().quarantined, 0u);
  std::vector<double> out;
  EXPECT_FALSE(cache.load("cell", 1, out));
  cache.store("cell", 1, ipc);
  EXPECT_TRUE(cache.load("cell", 1, out));
}

TEST(FaultInjection, WarmStateBankHealsShortWrittenCheckpoint) {
  TempDir tmp("snug_fault_bank_short_write");
  std::vector<std::byte> blob(256);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i);
  }

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=6; short-write@write:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::WarmStateBank bank(tmp.dir.string());
    bank.store("warm", 13, blob);
  }

  const sim::WarmStateBank bank(tmp.dir.string());
  std::vector<std::byte> out;
  EXPECT_FALSE(bank.load("warm", 13, out));
  EXPECT_EQ(bank.recovery().quarantined, 1u);
  bank.store("warm", 13, blob);
  ASSERT_TRUE(bank.load("warm", 13, out));
  EXPECT_EQ(out, blob);
}

// ---- the ISSUE 8 acceptance property -----------------------------------
// A campaign under a seeded fault plan — transient task failures plus
// store chaos — produces bit-identical results to a fault-free run.

void expect_identical(const sim::CampaignResults& a,
                      const sim::CampaignResults& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [combo, combo_results] : a) {
    const auto it = b.find(combo);
    ASSERT_NE(it, b.end()) << combo;
    ASSERT_EQ(combo_results.size(), it->second.size());
    for (const auto& [scheme, result] : combo_results) {
      const auto& other = it->second.at(scheme);
      ASSERT_EQ(result.ipc.size(), other.ipc.size());
      for (std::size_t i = 0; i < result.ipc.size(); ++i) {
        EXPECT_EQ(result.ipc[i], other.ipc[i])
            << combo << "/" << scheme << " core " << i;
      }
    }
  }
}

sim::CampaignSpec small_grid() {
  sim::CampaignSpec spec = sim::CampaignSpec::grid(
      {
          {"mixA", 3, {"gzip", "mesa", "gzip", "mesa"}},
          {"mixB", 5, {"ammp", "gzip", "mesa", "ammp"}},
      },
      {{schemes::SchemeKind::kL2P, 0.0},
       {schemes::SchemeKind::kCC, 0.5},
       {schemes::SchemeKind::kSNUG, 0.0}});
  spec.scenario.scale.warmup_cycles = 10'000;
  spec.scenario.scale.measure_cycles = 40'000;
  spec.scenario.scale.phase_period_refs = 50'000;
  return spec;
}

TEST(FaultInjection, FaultedCampaignIsBitIdenticalToCleanRun) {
  const sim::CampaignSpec spec = small_grid();

  sim::ExperimentRunner clean_runner(spec.scenario, "");
  sim::CampaignEngine clean(clean_runner, 2);
  const sim::CampaignResults a = clean.run(spec);

  TempDir tmp("snug_faulted_campaign_cache");
  fault::FaultPlan plan;
  std::string error;
  // first=1 on fail@task: every cell's FIRST attempt throws an injected
  // TransientError and every retry succeeds — the retry count is exact,
  // not probabilistic.  The store faults exercise the cache recovery
  // paths mid-campaign.
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=3; fail@task:first=1; short-write@write:p=0.4; "
      "bit-flip@read:p=0.4",
      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  sim::ExperimentRunner faulty_runner(spec.scenario, tmp.dir.string());
  sim::CampaignEngine faulty(faulty_runner, 2);
  faulty.retry.max_attempts = 3;
  faulty.retry.backoff_ms = 1;
  const sim::CampaignResults b = faulty.run(spec);

  expect_identical(a, b);
  EXPECT_EQ(faulty.stats().retries, spec.size());
  EXPECT_EQ(scoped.stats().task_failures, spec.size());
}

TEST(FaultInjection, RetryGivesUpAfterMaxAttempts) {
  const sim::CampaignSpec spec = small_grid();
  fault::FaultPlan plan;
  std::string error;
  // One cell fails on every attempt, forever.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=1; fail@task:match=mixB/SNUG",
                                      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  sim::ExperimentRunner runner(spec.scenario, "");
  sim::CampaignEngine engine(runner, 1);
  engine.retry.max_attempts = 2;
  engine.retry.backoff_ms = 1;
  EXPECT_THROW((void)engine.run(spec), fault::TransientError);
  EXPECT_EQ(scoped.stats().task_failures, 2u);  // attempts, then give up
}

// ---- executor watchdog -------------------------------------------------

TEST(Watchdog, FlagsButNeverKillsAWedgedWorker) {
  sim::ParallelExecutor exec(2);
  exec.watchdog_ms = 30;
  std::atomic<int> completed{0};
  exec.run_indexed(2, [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    completed.fetch_add(1);
  });
  // The slow task was flagged (possibly more than once is impossible:
  // one claim, one dump) and still ran to completion.
  EXPECT_EQ(exec.watchdog_flagged(), 1u);
  EXPECT_EQ(completed.load(), 2);
}

TEST(Watchdog, FlagLineNamesTheWedgedTask) {
  sim::ParallelExecutor exec(2);
  exec.watchdog_ms = 30;
  exec.task_label = [](std::size_t i) {
    return i == 0 ? std::string("mixB/CC(50%)") : std::string("fast");
  };
  testing::internal::CaptureStderr();
  exec.run_indexed(2, [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  const std::string err = testing::internal::GetCapturedStderr();
  // An operator reading the flag must learn WHICH cell wedged and for
  // how long, not just a bare task index.
  EXPECT_NE(err.find("mixB/CC(50%)"), std::string::npos) << err;
  EXPECT_NE(err.find("ms"), std::string::npos) << err;
  EXPECT_EQ(exec.watchdog_flagged(), 1u);
}

TEST(Watchdog, QuietWhenTasksBeatTheDeadline) {
  sim::ParallelExecutor exec(2);
  exec.watchdog_ms = 60'000;
  exec.run_indexed(8, [](std::size_t) {});
  EXPECT_EQ(exec.watchdog_flagged(), 0u);
}

}  // namespace
}  // namespace snug
