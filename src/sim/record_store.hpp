// The one record codec behind every durable artefact of a campaign: the
// eval cache's entries, the warm-state bank's checkpoints and the
// campaign journal's frames.
//
// Record layout (host-endian; the magic word doubles as an endianness
// check because a byte-swapped header can never match):
//   u32 magic | u32 version | u64 fingerprint | u32 count |
//   u32 CRC-32C(payload) | payload: exactly `count` elements
// `count` is in the payload's element type (f64 IPCs for the eval cache,
// bytes for the warm-state bank).  A decode is ok only when magic,
// version, fingerprint, count bound, size and payload CRC all check out,
// and a rejection is classified:
//   * stale   — wrong version or (expected) fingerprint, decided from the
//               header alone: a valid record answering a different
//               question, left in place;
//   * corrupt — bad magic, a count outside (0, max_count], a short or
//               overlong record, or a CRC mismatch: bytes that can never
//               be valid, quarantined by the stores.
//
// RecordStore is the one-file-per-entry directory store built on the
// codec: stores write a uniquely named temp file and rename() it into
// place, so a concurrent reader (thread or process) never observes a
// half-written entry; opening a store reaps temps whose writer is dead
// and bounds the quarantine (sim/store_recovery.hpp).  All I/O goes
// through the fault::Env seam, so every failure path is exercised
// deterministically by tests/sim/fault_injection_test.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim {

/// Identity and plausibility bound of one record kind.
struct RecordFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t max_count = 0;  ///< largest plausible payload element count
};

/// Verdict on one record's bytes (see the file comment).
enum class RecordVerdict : std::uint8_t {
  kOk,       ///< well-formed and current
  kStale,    ///< valid record answering a different question: leave it
  kCorrupt,  ///< structurally damaged: quarantine it
};

template <typename T>
struct Record {
  RecordVerdict verdict = RecordVerdict::kCorrupt;
  std::uint64_t fingerprint = 0;  ///< header fingerprint (kOk only)
  std::size_t consumed = 0;       ///< header + payload bytes (kOk only)
  std::vector<T> payload;         ///< kOk only
};

/// The record bytes for (fingerprint, payload); the caller keeps the
/// payload within (0, format.max_count] elements.
template <typename T>
[[nodiscard]] std::vector<std::byte> encode_record(
    const RecordFormat& format, std::uint64_t fingerprint,
    std::span<const T> payload);

/// Decodes the record at the front of `raw`, straight into the typed
/// payload; `consumed` says where the next record of a run starts.  With
/// `expect` set, a fingerprint mismatch is stale and decided from the
/// header alone, before any size or CRC check.
template <typename T>
[[nodiscard]] Record<T> decode_record(
    const RecordFormat& format, std::span<const std::byte> raw,
    std::optional<std::uint64_t> expect = std::nullopt);

/// decode_record for a whole entry file: bytes after the record are
/// trailing garbage, hence corrupt.
template <typename T>
[[nodiscard]] Record<T> decode_record_file(
    const RecordFormat& format, std::span<const std::byte> raw,
    std::optional<std::uint64_t> expect = std::nullopt);

/// Recovery actions taken by one store instance.
struct StoreRecovery {
  std::uint64_t reaped_temps = 0;  ///< dead writers' temps removed on open
  std::uint64_t quarantined = 0;   ///< corrupt entries renamed aside
  /// Oldest quarantine/ entries removed at open to stay within the
  /// kQuarantineCap bound (sim/store_recovery.hpp).
  std::uint64_t quarantine_trimmed = 0;
};

/// Fingerprint-keyed directory of `<key><suffix>` record files.
template <typename T>
class RecordStore {
 public:
  using Verdict = RecordVerdict;
  using Decoded = Record<T>;
  using Recovery = StoreRecovery;

  /// `dir` is created on demand; pass "" to disable the store.  Opening
  /// runs the orphaned-temp reap and the quarantine bound.
  RecordStore(std::string dir, std::string suffix, RecordFormat format);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// True (filling `payload`) for an ok entry; a corrupt entry is
  /// quarantined, a stale one stays in place, and nothing partial
  /// reaches `payload` on failure.
  [[nodiscard]] bool load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<T>& payload) const;
  /// Best-effort temp+rename publish; a payload outside the format's
  /// bound is not stored.
  void store(const std::string& key, std::uint64_t fingerprint,
             const std::vector<T>& payload) const;
  /// Header-only probe: true when a well-formed, current header for
  /// this (key, fingerprint) is published.  No size/CRC verdict and no
  /// quarantine (a later load makes the structural call) — cheap enough
  /// for admission paths and --dry-run predictions.
  [[nodiscard]] bool contains(const std::string& key,
                              std::uint64_t fingerprint) const;

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] Recovery recovery() const noexcept {
    return {reaped_temps_, quarantined_.load(std::memory_order_relaxed),
            quarantine_trimmed_};
  }

 protected:
  [[nodiscard]] const fault::Env& env() const noexcept { return *env_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] std::string entry_path(const std::string& key) const;

  const fault::Env* env_;  ///< resolved at construction (fault seam)
  std::string dir_;
  std::string suffix_;
  RecordFormat format_;
  mutable std::atomic<std::uint64_t> seq_{0};  ///< unique temp names
  std::uint64_t reaped_temps_ = 0;
  mutable std::atomic<std::uint64_t> quarantined_{0};
  std::uint64_t quarantine_trimmed_ = 0;
};

// The payload types in use, instantiated in record_store.cpp.
extern template class RecordStore<double>;
extern template class RecordStore<std::byte>;

}  // namespace snug::sim
