#include "sim/journal.hpp"

#include <unistd.h>

#include <cstring>

#include "common/str.hpp"
#include "sim/record_store.hpp"
#include "sim/runner.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim {
namespace {

struct JournalHeader {
  std::uint32_t magic = CampaignJournal::kMagic;
  std::uint32_t version = CampaignJournal::kVersion;
  std::uint64_t campaign_fp = 0;
};
static_assert(sizeof(JournalHeader) == 16, "header layout must be packed");

}  // namespace

CampaignJournal::CampaignJournal(std::string path,
                                 std::uint64_t campaign_fingerprint)
    : env_(&fault::env()),
      path_(std::move(path)),
      campaign_fp_(campaign_fingerprint) {
  if (path_.empty()) return;
  // Dead writers' `.stale.<pid>` siblings (foreign journals a prior
  // open moved aside) have served their purpose; reap them like
  // orphaned temps so a long-lived journal directory stays bounded.
  stale_reaped_ = reap_stale_journals(*env_, path_);

  std::vector<std::byte> raw;
  if (!env_->read_file(path_, raw) || raw.empty()) {
    start_fresh();
    return;
  }

  JournalHeader hdr;
  const bool header_ok = raw.size() >= sizeof hdr &&
                         (std::memcpy(&hdr, raw.data(), sizeof hdr), true) &&
                         hdr.magic == kMagic && hdr.version == kVersion &&
                         hdr.campaign_fp == campaign_fp_;
  if (!header_ok) {
    // Another campaign's (or era's) journal: move it aside — its
    // progress is not ours to destroy — and start fresh.
    reset_stale_ = true;
    env_->rename(path_, strf("%s.stale.%ld", path_.c_str(),
                             static_cast<long>(::getpid())));
    start_fresh();
    return;
  }

  // Replay the valid frame prefix; the first frame that does not decode
  // ok — short, implausible count, CRC mismatch, foreign magic or
  // version — is a torn tail (a killed appender) and everything from it
  // on is discarded.
  std::size_t valid_end = sizeof hdr;
  while (valid_end < raw.size()) {
    Record<double> frame = decode_record<double>(
        EvalCache::kFormat, std::span(raw).subspan(valid_end));
    if (frame.verdict != RecordVerdict::kOk) break;
    records_[frame.fingerprint] = std::move(frame.payload);
    valid_end += frame.consumed;
  }

  image_.assign(raw.begin(), raw.begin() + valid_end);
  if (valid_end != raw.size()) {
    // Atomically rewrite without the torn tail, via the same
    // temp-then-rename discipline as the stores.
    discarded_tail_bytes_ = raw.size() - valid_end;
    const std::string tmp =
        strf("%s.tmp.%ld.0", path_.c_str(), static_cast<long>(::getpid()));
    if (env_->write_file(tmp, raw.data(), valid_end) &&
        env_->rename(tmp, path_)) {
      return;
    }
    env_->remove(tmp);
    // Rewrite failed: appending after a torn tail would bury good
    // frames behind a bad one (replay stops at the first bad frame),
    // so disable appends — the already-replayed records stay usable.
    path_.clear();
  }
}

void CampaignJournal::start_fresh() {
  JournalHeader hdr;
  hdr.campaign_fp = campaign_fp_;
  std::vector<std::byte> raw(sizeof hdr);
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  if (!env_->write_file(path_, raw.data(), raw.size())) {
    path_.clear();  // journalling stays best-effort
    return;
  }
  image_ = std::move(raw);
}

bool CampaignJournal::lookup(std::uint64_t run_fingerprint,
                             std::vector<double>& ipc) const {
  const auto it = records_.find(run_fingerprint);
  if (it == records_.end()) return false;
  ipc = it->second;
  return true;
}

void CampaignJournal::append(std::uint64_t run_fingerprint,
                             const std::vector<double>& ipc) {
  if (path_.empty() || ipc.empty() || ipc.size() > EvalCache::kMaxEntries) {
    return;
  }
  const std::vector<std::byte> frame =
      encode_record<double>(EvalCache::kFormat, run_fingerprint, ipc);

  const std::lock_guard<std::mutex> lock(append_mu_);
  if (env_->append_file(path_, frame.data(), frame.size())) {
    image_.insert(image_.end(), frame.begin(), frame.end());
    return;
  }
  ++append_failures_;
  // A failed append (e.g. ENOSPC) can leave a partial frame on disk,
  // and replay stops at the first bad frame — every LATER successful
  // append would be buried behind it.  Repair by atomically rewriting
  // the known-good image (header + whole frames); if even that fails,
  // disable appends rather than keep corrupting the tail.
  const std::string tmp =
      strf("%s.tmp.%ld.a%llu", path_.c_str(), static_cast<long>(::getpid()),
           static_cast<unsigned long long>(append_failures_));
  if (env_->write_file(tmp, image_.data(), image_.size()) &&
      env_->rename(tmp, path_)) {
    return;
  }
  env_->remove(tmp);
  path_.clear();
}

}  // namespace snug::sim
