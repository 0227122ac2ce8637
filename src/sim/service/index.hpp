// AnswerIndex — the reader-side fingerprint index over the EvalCache
// (ISSUE 10 tentpole, tier 1 of the hit-path latency stack).
//
// Before this index, every warm query paid one file read per cell
// (EvalCache::load) plus a journal append per hit — ~0.4 ms of syscalls
// for a result that never changes.  The index front-loads that work:
// on server open it scans the cache directory ONCE, validates each
// entry with EvalCache::decode, the record decoder EvalCache::load uses
// (sim/record_store.hpp), and pins the fingerprint -> IPC mapping in an
// open-addressing hash table.  A warm lookup is then a
// couple of L1-resident probes — zero directory scans, zero file
// reads, zero journal traffic.
//
// Freshness without rescans: other processes publish entries by atomic
// rename into the cache directory, which bumps the directory's mtime
// and link count.  maybe_refresh() stats the directory (one cheap
// metadata syscall — deliberately NOT through the fault seam: the
// epoch is a pure optimisation, never a durability decision) and only
// rescans when the (mtime_ns, entry count) epoch moved; the rescan
// itself is incremental — only file names not yet indexed are read.
// Same-process completions skip even that: the server insert()s each
// result as it stores it.
//
// Safety: the index can only ever DECLINE a hit it should have served
// (a store racing the epoch check) — the cell then re-simulates to the
// identical result and heals on the next refresh.  It can never serve
// a wrong answer: entries are CRC-validated on the way in, and an
// entry name embeds its fingerprint, so a name is never re-bound to
// different bytes (heals replace corrupt files, which were never
// indexed).  Corrupt entries found during a scan are quarantined with
// the stores' shared never-delete discipline (sim/store_recovery.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/fault.hpp"
#include "common/fsepoch.hpp"

namespace snug::sim::service {

class AnswerIndex {
 public:
  struct Counters {
    std::uint64_t entries = 0;      ///< fingerprints currently indexed
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rescans = 0;      ///< epoch moved -> incremental scan
    std::uint64_t epoch_checks = 0; ///< maybe_refresh() stat probes
    std::uint64_t files_indexed = 0;
    std::uint64_t files_rejected = 0;  ///< corrupt/stale at scan time
    std::uint64_t quarantined = 0;     ///< corrupt entries moved aside
  };

  /// Opens over `cache_dir` ("" disables: every lookup misses) and runs
  /// the initial full scan.
  explicit AnswerIndex(std::string cache_dir);

  AnswerIndex(const AnswerIndex&) = delete;
  AnswerIndex& operator=(const AnswerIndex&) = delete;

  /// The hit path: true (filling `ipc`) when `fp` is indexed.  Memory
  /// only — no syscalls.  Thread-safe (shared lock).
  [[nodiscard]] bool lookup(std::uint64_t fp, std::vector<double>& ipc);

  /// Records a result this process just stored (or computed): the index
  /// stays warm without waiting for an epoch rescan.  No-op for ipc
  /// empty/oversized or when the same fp is already indexed.
  void insert(std::uint64_t fp, const std::vector<double>& ipc);

  /// Epoch check: stat the directory; when its (mtime_ns, size)
  /// signature moved since the last scan — or is too young to trust
  /// (the racy-mtime rule, common/fsepoch.hpp) — incrementally index
  /// the file names not yet known.  Returns true when a rescan
  /// happened.  `force` skips the epoch short-circuit (tests; server
  /// open already scans).
  bool maybe_refresh(bool force = false);

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

 private:
  struct Slot {
    std::uint64_t fp = 0;       ///< 0 = empty (fp 0 falls back to miss)
    std::uint32_t offset = 0;   ///< into pool_
    std::uint32_t count = 0;
  };

  // All three _locked helpers require mu_ held exclusively.
  void rescan_locked();
  void insert_locked(std::uint64_t fp, const double* ipc,
                     std::uint32_t count);
  void grow_locked();
  [[nodiscard]] bool index_file_locked(const std::string& name);

  const fault::Env* env_;
  std::string dir_;

  mutable std::shared_mutex mu_;
  std::vector<Slot> slots_;     ///< open addressing, power-of-two size
  std::vector<double> pool_;    ///< slot payloads, appended on insert
  std::size_t used_ = 0;
  std::unordered_set<std::string> known_;  ///< successfully indexed names
  DirEpoch epoch_;  ///< racy-mtime-guarded (common/fsepoch.hpp)
  Counters counters_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> quarantine_seq_{0};
};

}  // namespace snug::sim::service
