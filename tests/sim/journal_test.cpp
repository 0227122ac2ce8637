// CampaignJournal tests (ISSUE 8): frame round-trips, torn-tail
// discard with atomic rewrite, stale journals renamed aside (never
// deleted), best-effort appends under injected ENOSPC, and the
// acceptance property — a campaign resumed from a partial journal is
// bit-identical to the uninterrupted run and simulates only the
// missing cells.
#include "sim/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/record_store.hpp"
#include "sim/runner.hpp"

namespace snug::sim {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string journal() const {
    return (dir / "campaign.journal").string();
  }
  fs::path dir;
};

std::vector<std::byte> read_bytes(const fs::path& path) {
  std::vector<std::byte> raw(fs::file_size(path));
  std::ifstream f(path, std::ios::binary);
  f.read(reinterpret_cast<char*>(raw.data()),
         static_cast<std::streamsize>(raw.size()));
  return raw;
}

void write_bytes(const fs::path& path, const std::vector<std::byte>& raw) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
}

TEST(CampaignJournal, RoundTripsRecordsAcrossReopen) {
  TempDir tmp("snug_journal_roundtrip");
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{0.5};
  {
    CampaignJournal journal(tmp.journal(), 42);
    ASSERT_TRUE(journal.enabled());
    EXPECT_EQ(journal.replayed_cells(), 0u);
    journal.append(101, a);
    journal.append(202, b);
    EXPECT_EQ(journal.append_failures(), 0u);
  }
  CampaignJournal journal(tmp.journal(), 42);
  EXPECT_EQ(journal.replayed_cells(), 2u);
  EXPECT_EQ(journal.discarded_tail_bytes(), 0u);
  EXPECT_FALSE(journal.reset_stale());
  std::vector<double> out;
  ASSERT_TRUE(journal.lookup(101, out));
  EXPECT_EQ(out, a);
  ASSERT_TRUE(journal.lookup(202, out));
  EXPECT_EQ(out, b);
  EXPECT_FALSE(journal.lookup(303, out));
}

TEST(CampaignJournal, DisabledWhenPathIsEmpty) {
  CampaignJournal journal("", 1);
  EXPECT_FALSE(journal.enabled());
  journal.append(1, {1.0});  // no-op, no crash
  std::vector<double> out;
  EXPECT_FALSE(journal.lookup(1, out));
}

TEST(CampaignJournal, TornTailIsDiscardedAndAtomicallyRewritten) {
  TempDir tmp("snug_journal_torn_tail");
  {
    CampaignJournal journal(tmp.journal(), 7);
    journal.append(1, {1.0, 2.0});
    journal.append(2, {3.0, 4.0});
    journal.append(3, {5.0, 6.0});
  }
  // kill -9 mid-append: chop the file mid-way through the last frame.
  const std::uintmax_t full = fs::file_size(tmp.journal());
  const std::uintmax_t frame = (full - 16) / 3;
  ASSERT_EQ((full - 16) % 3, 0u) << "frames should be equal-sized";
  fs::resize_file(tmp.journal(), full - frame / 2);

  {
    CampaignJournal journal(tmp.journal(), 7);
    EXPECT_EQ(journal.replayed_cells(), 2u);
    EXPECT_EQ(journal.discarded_tail_bytes(), frame - frame / 2);
    std::vector<double> out;
    EXPECT_TRUE(journal.lookup(2, out));
    EXPECT_FALSE(journal.lookup(3, out));
    // The rewrite dropped the torn bytes from disk, atomically.
    EXPECT_EQ(fs::file_size(tmp.journal()), 16 + 2 * frame);
    // Appending after recovery lands cleanly after the valid prefix.
    journal.append(3, {5.0, 6.0});
  }
  CampaignJournal journal(tmp.journal(), 7);
  EXPECT_EQ(journal.replayed_cells(), 3u);
  EXPECT_EQ(journal.discarded_tail_bytes(), 0u);
}

TEST(CampaignJournal, GarbageTailStopsReplayAtTheLastValidFrame) {
  TempDir tmp("snug_journal_garbage_tail");
  {
    CampaignJournal journal(tmp.journal(), 9);
    journal.append(1, {1.0});
  }
  {
    // A frame that opens with a foreign magic word (and is shorter
    // than a record header): replay must stop there, not allocate or
    // read past the file.
    std::ofstream f(tmp.journal(), std::ios::binary | std::ios::app);
    const std::uint32_t len = 0xFFFFFFFFu;
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write("garbage", 7);
  }
  CampaignJournal journal(tmp.journal(), 9);
  EXPECT_EQ(journal.replayed_cells(), 1u);
  EXPECT_GT(journal.discarded_tail_bytes(), 0u);
  std::vector<double> out;
  EXPECT_TRUE(journal.lookup(1, out));
}

// One record layout: a journal frame is byte-for-byte the eval-cache
// entry EvalCache::store writes for the same (run fingerprint, IPCs).
TEST(CampaignJournal, FrameIsTheEvalCacheEntryBytes) {
  TempDir tmp("snug_journal_frame_layout");
  const std::vector<double> ipc{0.875, 1.5, 2.25};
  {
    CampaignJournal journal(tmp.journal(), 4);
    journal.append(77, ipc);
  }
  EvalCache cache((tmp.dir / "cache").string());
  cache.store("k", 77, ipc);

  const std::vector<std::byte> journal = read_bytes(tmp.journal());
  const std::vector<std::byte> entry = read_bytes(tmp.dir / "cache/k.snugc");
  ASSERT_EQ(journal.size(), 16 + entry.size());
  EXPECT_TRUE(std::equal(entry.begin(), entry.end(), journal.begin() + 16));
}

// Seeded fuzz over journal replay: a run of frames whose first damaged
// frame (bit flips outside the fingerprint word, which the payload CRC
// does not cover; a truncation; random bytes; or a splice of another
// frame's tail) is followed by intact frames must replay exactly the
// frames before the damage, discard the rest as a torn tail, and leave
// exactly that valid prefix on disk.
TEST(CampaignJournal, FuzzedFramesReplayExactlyTheValidPrefix) {
  TempDir tmp("snug_journal_fuzz");
  std::vector<std::byte> header;
  {
    CampaignJournal journal(tmp.journal(), 11);
    header = read_bytes(tmp.journal());
  }
  ASSERT_EQ(header.size(), 16u);

  Rng rng(Rng::derive_seed("journal-fuzz"));
  for (int iter = 0; iter < 600; ++iter) {
    const std::size_t n = 1 + rng.below(6);
    const std::size_t damaged = rng.below(n + 1);  // n: no damage
    std::vector<std::vector<double>> ipcs(n);
    std::vector<std::vector<std::byte>> frames(n);
    for (std::size_t i = 0; i < n; ++i) {
      ipcs[i].resize(1 + rng.below(4));
      for (double& v : ipcs[i]) v = rng.uniform();
      frames[i] = encode_record<double>(EvalCache::kFormat, 1000 + i,
                                        std::span<const double>(ipcs[i]));
    }
    const std::vector<std::vector<std::byte>> intact = frames;
    if (damaged < n) {
      std::vector<std::byte>& f = frames[damaged];
      switch (rng.below(4)) {
        case 0:  // bit flips anywhere but the (CRC-less) fingerprint word
          for (std::uint64_t k = 0, m = 1 + rng.below(3); k < m; ++k) {
            std::size_t pos = rng.below(f.size() - 8);
            if (pos >= 8) pos += 8;
            f[pos] ^= static_cast<std::byte>(1U << rng.below(8));
          }
          break;
        case 1:  // truncated frame
          f.resize(rng.below(f.size()));
          break;
        case 2:  // random bytes in place of the frame
          f.resize(1 + rng.below(48));
          for (std::byte& b : f) b = static_cast<std::byte>(rng.below(256));
          break;
        default: {  // splice: this frame's head + another frame's tail,
                    // misaligned (an aligned splice inside the header
                    // is a valid record for a hybrid fingerprint)
          const std::vector<std::byte> other = frames[rng.below(n)];
          const std::size_t head = rng.below(f.size());
          std::size_t from = rng.below(other.size() + 1);
          if (from == head) from = head + 1 <= other.size() ? head + 1 : 0;
          f.resize(head);
          f.insert(f.end(), other.begin() + static_cast<long>(from),
                   other.end());
          break;
        }
      }
      // A mutation that cancelled out (or removed the frame) is no
      // damage: make it one garbage byte.
      if (f.empty() || f == intact[damaged]) f.assign(1, std::byte{0x5A});
    }
    std::vector<std::byte> raw = header;
    std::size_t valid_bytes = header.size();
    for (std::size_t i = 0; i < n; ++i) {
      raw.insert(raw.end(), frames[i].begin(), frames[i].end());
      if (i < damaged) valid_bytes += frames[i].size();
    }
    write_bytes(tmp.journal(), raw);

    CampaignJournal journal(tmp.journal(), 11);
    ASSERT_FALSE(journal.reset_stale());
    ASSERT_EQ(journal.replayed_cells(), damaged) << "iteration " << iter;
    EXPECT_EQ(journal.discarded_tail_bytes(), raw.size() - valid_bytes);
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
      if (i < damaged) {
        ASSERT_TRUE(journal.lookup(1000 + i, out));
        EXPECT_EQ(out, ipcs[i]);
      } else {
        EXPECT_FALSE(journal.lookup(1000 + i, out));
      }
    }
    EXPECT_EQ(fs::file_size(tmp.journal()), valid_bytes);
  }
}

TEST(CampaignJournal, StaleJournalIsMovedAsideNeverDeleted) {
  TempDir tmp("snug_journal_stale");
  {
    CampaignJournal journal(tmp.journal(), 1);
    journal.append(11, {1.0});
  }
  const std::uintmax_t original_size = fs::file_size(tmp.journal());

  // A different campaign opens the same path: nothing replays, and the
  // old journal survives under <path>.stale.*.
  CampaignJournal journal(tmp.journal(), 2);
  EXPECT_TRUE(journal.reset_stale());
  EXPECT_EQ(journal.replayed_cells(), 0u);
  std::vector<double> out;
  EXPECT_FALSE(journal.lookup(11, out));
  bool found_stale = false;
  for (const auto& entry : fs::directory_iterator(tmp.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("campaign.journal.stale.") == 0) {
      found_stale = true;
      EXPECT_EQ(fs::file_size(entry.path()), original_size);
    }
  }
  EXPECT_TRUE(found_stale);
}

TEST(CampaignJournal, StaleJournalsOfDeadWritersAreReapedOnOpen) {
  TempDir tmp("snug_journal_stale_reap");
  // What crashed campaigns leave behind: stale files moved aside by a
  // fingerprint mismatch, owned by pids that no longer exist — plus one
  // owned by a live process (us), which must survive the reap.
  const auto plant = [&](const std::string& suffix) {
    std::ofstream out(tmp.journal() + suffix, std::ios::binary);
    out << "old journal bytes";
  };
  plant(".stale.999999999");
  plant(".stale.bogus");
  const std::string live = ".stale." + std::to_string(::getpid());
  plant(live);

  {
    CampaignJournal journal(tmp.journal(), 6);
    EXPECT_EQ(journal.stale_reaped(), 2u);
    EXPECT_FALSE(fs::exists(tmp.journal() + ".stale.999999999"));
    EXPECT_FALSE(fs::exists(tmp.journal() + ".stale.bogus"));
    EXPECT_TRUE(fs::exists(tmp.journal() + live));
    // The journal itself opens clean and appends normally.
    journal.append(1, {1.0});
  }
  CampaignJournal journal(tmp.journal(), 6);
  std::vector<double> out;
  EXPECT_TRUE(journal.lookup(1, out));
}

TEST(CampaignJournal, EnospcAppendIsCountedNotFatal) {
  TempDir tmp("snug_journal_enospc");
  fault::FaultPlan plan;
  std::string error;
  // every=2 fires on the 2nd, 4th, ... write to the journal path: the
  // header write (occurrence 1) and the second append (occurrence 3)
  // succeed, the first append (occurrence 2) hits ENOSPC.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=5; enospc@write:every=2",
                                      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  {
    CampaignJournal journal(tmp.journal(), 3);
    ASSERT_TRUE(journal.enabled());
    journal.append(1, {1.0});
    journal.append(2, {2.0});
    EXPECT_EQ(journal.append_failures(), 1u);
    EXPECT_EQ(scoped.stats().enospc, 1u);
  }
  // The failed append may have left a torn frame; recovery discards it
  // and the surviving record replays.
  CampaignJournal journal(tmp.journal(), 3);
  std::vector<double> out;
  EXPECT_TRUE(journal.lookup(2, out));
  EXPECT_EQ(journal.replayed_cells(), 1u);
}

// ---- campaign checkpoint/resume ----------------------------------------

void expect_identical(const CampaignResults& a, const CampaignResults& b) {
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

CampaignSpec small_grid() {
  CampaignSpec spec = CampaignSpec::grid(
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

TEST(CampaignResume, FullJournalReplaysEverythingBitIdentically) {
  TempDir tmp("snug_resume_full");
  const CampaignSpec spec = small_grid();

  ExperimentRunner first_runner(spec.scenario, "");
  CampaignEngine first(first_runner, 2);
  first.journal_path = tmp.journal();
  const CampaignResults a = first.run(spec);
  EXPECT_EQ(first.stats().replayed, 0u);

  // Caching disabled: everything the resumed run reports must come from
  // the journal, not re-simulation or the eval cache.
  ExperimentRunner second_runner(spec.scenario, "");
  CampaignEngine second(second_runner, 2);
  second.journal_path = tmp.journal();
  std::size_t replayed_ticks = 0;
  second.on_progress = [&](const CampaignProgress& p) {
    if (p.replayed) ++replayed_ticks;
  };
  const CampaignResults b = second.run(spec);

  expect_identical(a, b);
  EXPECT_EQ(second.stats().replayed, spec.size());
  EXPECT_EQ(replayed_ticks, spec.size());
}

TEST(CampaignResume, PartialJournalSimulatesOnlyTheMissingCells) {
  TempDir tmp("snug_resume_partial");
  const CampaignSpec spec = small_grid();

  ExperimentRunner first_runner(spec.scenario, "");
  CampaignEngine first(first_runner, 1);
  first.journal_path = tmp.journal();
  const CampaignResults a = first.run(spec);

  // Simulate a kill -9 after two cells: keep the header, two frames and
  // half of the third.
  const std::uintmax_t full = fs::file_size(tmp.journal());
  const std::uintmax_t frame = (full - 16) / spec.size();
  fs::resize_file(tmp.journal(), 16 + 2 * frame + frame / 2);

  ExperimentRunner second_runner(spec.scenario, "");
  CampaignEngine second(second_runner, 2);
  second.journal_path = tmp.journal();
  std::size_t replayed_ticks = 0;
  std::size_t simulated_ticks = 0;
  second.on_progress = [&](const CampaignProgress& p) {
    (p.replayed ? replayed_ticks : simulated_ticks)++;
  };
  const CampaignResults b = second.run(spec);

  expect_identical(a, b);  // resume ≡ uninterrupted, bit-identically
  EXPECT_EQ(second.stats().replayed, 2u);
  EXPECT_EQ(replayed_ticks, 2u);
  EXPECT_EQ(simulated_ticks, spec.size() - 2);
  EXPECT_GT(second.stats().journal_discarded_bytes, 0u);

  // The resumed run re-journalled what it re-simulated: a third run
  // replays the whole grid.
  ExperimentRunner third_runner(spec.scenario, "");
  CampaignEngine third(third_runner, 2);
  third.journal_path = tmp.journal();
  const CampaignResults c = third.run(spec);
  expect_identical(a, c);
  EXPECT_EQ(third.stats().replayed, spec.size());
}

TEST(CampaignResume, ForeignJournalIsIgnoredAndPreserved) {
  TempDir tmp("snug_resume_foreign");
  CampaignSpec spec = small_grid();

  ExperimentRunner runner(spec.scenario, "");
  CampaignEngine engine(runner, 1);
  engine.journal_path = tmp.journal();
  (void)engine.run(spec);

  // The same journal path under a different grid (one scheme dropped):
  // a different campaign fingerprint, so nothing replays.
  CampaignSpec other = spec;
  other.schemes.pop_back();
  ExperimentRunner other_runner(other.scenario, "");
  CampaignEngine other_engine(other_runner, 1);
  other_engine.journal_path = tmp.journal();
  (void)other_engine.run(other);
  EXPECT_EQ(other_engine.stats().replayed, 0u);
  EXPECT_TRUE(other_engine.stats().journal_reset_stale);

  bool found_stale = false;
  for (const auto& entry : fs::directory_iterator(tmp.dir)) {
    if (entry.path().filename().string().find(
            "campaign.journal.stale.") == 0) {
      found_stale = true;
    }
  }
  EXPECT_TRUE(found_stale);
}

}  // namespace
}  // namespace snug::sim
