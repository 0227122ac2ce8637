#include "sim/record_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "common/str.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim {
namespace {

struct RecordHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t count = 0;
  std::uint32_t payload_crc = 0;  ///< CRC-32C of the payload bytes
};
static_assert(sizeof(RecordHeader) == 24, "header layout must be packed");

/// The verdict the header alone can give; kOk leaves the size and CRC
/// checks to the caller.
RecordVerdict decode_header(const RecordFormat& format,
                            std::span<const std::byte> raw,
                            std::optional<std::uint64_t> expect,
                            RecordHeader& hdr) {
  if (raw.size() < sizeof hdr) return RecordVerdict::kCorrupt;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  if (hdr.magic != format.magic) return RecordVerdict::kCorrupt;
  if (hdr.version != format.version ||
      (expect && hdr.fingerprint != *expect)) {
    return RecordVerdict::kStale;
  }
  if (hdr.count == 0 || hdr.count > format.max_count) {
    return RecordVerdict::kCorrupt;
  }
  return RecordVerdict::kOk;
}

}  // namespace

template <typename T>
std::vector<std::byte> encode_record(const RecordFormat& format,
                                     std::uint64_t fingerprint,
                                     std::span<const T> payload) {
  const auto bytes = std::as_bytes(payload);
  const RecordHeader hdr{format.magic, format.version, fingerprint,
                         static_cast<std::uint32_t>(payload.size()),
                         crc32c(bytes.data(), bytes.size())};
  std::vector<std::byte> raw(sizeof hdr + bytes.size());
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  std::copy(bytes.begin(), bytes.end(), raw.begin() + sizeof hdr);
  return raw;
}

template <typename T>
Record<T> decode_record(const RecordFormat& format,
                        std::span<const std::byte> raw,
                        std::optional<std::uint64_t> expect) {
  Record<T> out;
  RecordHeader hdr;
  out.verdict = decode_header(format, raw, expect, hdr);
  if (out.verdict != RecordVerdict::kOk) return out;
  out.verdict = RecordVerdict::kCorrupt;
  const std::size_t payload_bytes = std::size_t{hdr.count} * sizeof(T);
  if (raw.size() - sizeof hdr < payload_bytes) return out;  // truncated
  const std::byte* payload = raw.data() + sizeof hdr;
  if (crc32c(payload, payload_bytes) != hdr.payload_crc) {
    return out;  // bit rot / torn payload
  }
  out.verdict = RecordVerdict::kOk;
  out.fingerprint = hdr.fingerprint;
  out.consumed = sizeof hdr + payload_bytes;
  out.payload.resize(hdr.count);
  std::memcpy(out.payload.data(), payload, payload_bytes);
  return out;
}

template <typename T>
Record<T> decode_record_file(const RecordFormat& format,
                             std::span<const std::byte> raw,
                             std::optional<std::uint64_t> expect) {
  Record<T> out = decode_record<T>(format, raw, expect);
  if (out.verdict == RecordVerdict::kOk && out.consumed != raw.size()) {
    return {};  // trailing garbage
  }
  return out;
}

template <typename T>
RecordStore<T>::RecordStore(std::string dir, std::string suffix,
                            RecordFormat format)
    : env_(&fault::env()),
      dir_(std::move(dir)),
      suffix_(std::move(suffix)),
      format_(format) {
  if (dir_.empty()) return;
  if (!env_->create_directories(dir_)) {
    dir_.clear();  // fall back to store-less operation
    return;
  }
  reaped_temps_ = reap_orphaned_temps(*env_, dir_);
  quarantine_trimmed_ = bound_quarantine(*env_, dir_);
}

template <typename T>
std::string RecordStore<T>::entry_path(const std::string& key) const {
  return dir_ + "/" + key + suffix_;
}

template <typename T>
bool RecordStore<T>::load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<T>& payload) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw)) return false;
  Record<T> entry = decode_record_file<T>(format_, raw, fingerprint);
  if (entry.verdict == RecordVerdict::kCorrupt &&
      quarantine_entry(*env_, dir_, key + suffix_,
                       seq_.fetch_add(1, std::memory_order_relaxed))) {
    // Renamed aside, never deleted: it stops shadowing fresh stores but
    // stays inspectable.  Stale entries stay in place.
    quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
  if (entry.verdict != RecordVerdict::kOk) return false;
  payload = std::move(entry.payload);
  return true;
}

template <typename T>
bool RecordStore<T>::contains(const std::string& key,
                              std::uint64_t fingerprint) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw, sizeof(RecordHeader))) {
    return false;
  }
  RecordHeader hdr;
  return decode_header(format_, raw, fingerprint, hdr) == RecordVerdict::kOk;
}

template <typename T>
void RecordStore<T>::store(const std::string& key, std::uint64_t fingerprint,
                           const std::vector<T>& payload) const {
  if (dir_.empty() || payload.empty() ||
      payload.size() > format_.max_count) {
    return;
  }
  const std::vector<std::byte> raw =
      encode_record<T>(format_, fingerprint, payload);
  // Unique temp name per (process, store) so concurrent writers — threads
  // of this process or entirely separate processes — never collide; the
  // final rename is atomic within the directory.
  const std::string tmp =
      strf("%s/%s.tmp.%ld.%llu", dir_.c_str(), key.c_str(),
           static_cast<long>(::getpid()),
           static_cast<unsigned long long>(
               seq_.fetch_add(1, std::memory_order_relaxed)));
  if (!env_->write_file(tmp, raw.data(), raw.size())) {
    env_->remove(tmp);  // ENOSPC-style partial file: clean up
    return;
  }
  if (!env_->rename(tmp, entry_path(key))) {
    env_->remove(tmp);  // the store stays best-effort
  }
}

template class RecordStore<double>;
template class RecordStore<std::byte>;
template std::vector<std::byte> encode_record<double>(
    const RecordFormat&, std::uint64_t, std::span<const double>);
template Record<double> decode_record<double>(
    const RecordFormat&, std::span<const std::byte>,
    std::optional<std::uint64_t>);
template Record<double> decode_record_file<double>(
    const RecordFormat&, std::span<const std::byte>,
    std::optional<std::uint64_t>);

}  // namespace snug::sim
