// Wire protocol of the campaign service — the file-based submit/complete
// queue between clients and `campaignd`.
//
// A query is one file in `<root>/submit/<id>.query`; the matching
// answer appears at `<root>/answers/<id>.answer`.  Both sides publish
// atomically (unique temp + rename, the same discipline as the stores),
// so a reader can never observe a half-written message, and both sides
// go through the fault::Env seam so torn submissions and answer-publish
// failures are exercised deterministically in tests.
//
// One grammar, two dialects.  Every message is line-oriented key=value
// under a magic first (non-empty) line that names the dialect.  v1
// carries one scenario x scheme item, v2 (the batch dialect) carries N
// of them in ONE message and answers with PER-PART status, so admission
// control can shed one overloaded part (whole-part, never a partial cell
// list) while the rest of the batch proceeds.  A v1 message is a
// one-item (one-part) batch written in the older spelling:
//
//   query-v1                  answer-v1
//   id=<id, [A-Za-z0-9._-]+>  id=<query id>
//   scenario=<ScenarioSpec>   status=ok | error | retry-after
//   scheme=<SchemeSpec id>    error=<msg>         (status=error only)
//                             retry-after-ms=<n>  (status=retry-after only)
//                             cell=<combo> ipc=<v>,<v>,...
//
//   query-v2                  answer-v2
//   id=<id>                   id=<query id>
//   query=<scheme>|<scenario> parts=<N>
//     (one line per item,     part=<i> status=ok
//     >= 1; '|' cannot        part=<i> status=error error=<msg>
//     appear in either side)  part=<i> status=retry-after retry-after-ms=<n>
//                             cell=<i>/<combo> ipc=<v>,<v>,...
//
// v2 part lines appear in index order 0..N-1, exactly once each; cell
// lines follow, grouped by part.  IPC values are printed with %.17g,
// which round-trips an IEEE double exactly — a resumed server's answers
// can be byte-compared ("diff") against an uninterrupted run's.  Counts,
// indices and retry-after-ms are plain decimal digits (parse_u64).
//
// One parser per message kind: parse_query and parse_answer accept both
// magics and report which one they saw.  The dialect is kept only to
// answer in kind:
//   - campaignd accepts either query dialect and answers each query in
//     its own dialect, byte-identical to the pre-batch server for v1
//     (the literal pins in tests/sim/service_wire_test.cpp and
//     service_server_test.cpp).  A file that parses as neither is
//     answered with an answer-v1 status=error.
//   - ServiceClient::try_poll accepts only answer-v1;
//     ServiceClient::try_poll_batch accepts both (a v1 answer is one
//     part — how a batch the server rejected wholesale comes back).
//
// Crash contract: the submit file is the durable record of an accepted
// query — the server removes it only AFTER the answer is published, so
// a server killed at any point re-ingests the query on restart and the
// client's poll loop never hangs on a lost query.  Re-publishing an
// identical answer is idempotent.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim::service {

/// The two dialects of the one wire grammar (see above).
enum class WireDialect : std::uint8_t {
  kV1,  ///< query-v1 / answer-v1: one item, one part
  kV2,  ///< query-v2 / answer-v2: a batch
};

/// Client-visible status of a completed query.
enum class AnswerStatus : std::uint8_t {
  kOk,
  kError,       ///< malformed query, or a cell poisoned past recovery
  kRetryAfter,  ///< backlog full — resubmit after retry_after_ms
};

/// A v1 client's query: one scenario x scheme item.
struct ServiceQuery {
  std::string id;
  std::string scenario_text;  ///< ScenarioSpec grammar (sim/scenario.hpp)
  std::string scheme_id;      ///< SchemeSpec::id() grammar
};

struct AnswerCell {
  std::string combo;        ///< workload combo name
  std::vector<double> ipc;  ///< per-core measured IPC
};

/// A v1 client's answer: the one part of a one-item query.
struct ServiceAnswer {
  std::string id;
  AnswerStatus status = AnswerStatus::kOk;
  std::string error;                 ///< status=error diagnostic
  std::uint64_t retry_after_ms = 0;  ///< status=retry-after backoff hint
  std::vector<AnswerCell> cells;     ///< query's combos, in combo order
};

/// One scenario x scheme item of a query.
struct BatchItem {
  std::string scenario_text;
  std::string scheme_id;
};

/// Hard cap on items per batch — a figure sweep is ~21; anything past
/// this is a malformed (or hostile) message, rejected at parse.
inline constexpr std::size_t kMaxBatchItems = 1024;

/// A parsed query of either dialect (a v1 query is one item).
struct ServiceBatchQuery {
  std::string id;
  std::vector<BatchItem> items;
};

/// Per-part result of a batch: one item's whole answer.  Shed and error
/// verdicts are part-granular — a part never carries a partial cell
/// list.
struct BatchPart {
  AnswerStatus status = AnswerStatus::kOk;
  std::string error;                 ///< status=error diagnostic
  std::uint64_t retry_after_ms = 0;  ///< status=retry-after backoff hint
  std::vector<AnswerCell> cells;     ///< item's combos, in combo order
};

/// A parsed answer of either dialect (a v1 answer is one part).
struct ServiceBatchAnswer {
  std::string id;
  std::vector<BatchPart> parts;  ///< one per query item, in item order
};

/// Query ids become file names: one path component, no separators or
/// shell surprises — [A-Za-z0-9._-]+, at most 128 chars.
[[nodiscard]] bool valid_query_id(const std::string& id);

[[nodiscard]] std::string submit_dir(const std::string& root);
[[nodiscard]] std::string answer_dir(const std::string& root);
[[nodiscard]] std::string query_path(const std::string& root,
                                     const std::string& id);
[[nodiscard]] std::string answer_path(const std::string& root,
                                      const std::string& id);

/// query-v1 bytes of a one-item query.
[[nodiscard]] std::string encode_query(const ServiceQuery& query);
/// query-v2 bytes of a batch.
[[nodiscard]] std::string encode_batch_query(const ServiceBatchQuery& query);
/// Parses a query of either dialect; a v1 query becomes a one-item
/// batch.  False (with a one-line diagnostic) on an unknown magic, any
/// malformed line, a bad id or a missing field; `out` and `dialect` are
/// untouched on failure.
[[nodiscard]] bool parse_query(const std::string& text,
                               ServiceBatchQuery& out, WireDialect& dialect,
                               std::string& error);
/// The batch item grammar `<scheme id>|<ScenarioSpec line>`, split at
/// the first '|'.  False unless both sides are non-empty.
[[nodiscard]] bool parse_batch_item(const std::string& text, BatchItem& out);

/// answer-v1 bytes.
[[nodiscard]] std::string encode_answer(const ServiceAnswer& answer);
/// answer-v2 bytes.
[[nodiscard]] std::string encode_batch_answer(
    const ServiceBatchAnswer& answer);
/// Parses an answer of either dialect; a v1 answer becomes one part.
/// Same failure contract as parse_query.
[[nodiscard]] bool parse_answer(const std::string& text,
                                ServiceBatchAnswer& out,
                                WireDialect& dialect, std::string& error);
/// The v1 view of a one-part answer: part 0 under the answer's id (a
/// default ok answer when there is no part).
[[nodiscard]] ServiceAnswer single_answer(const ServiceBatchAnswer& answer);

/// Verified atomic publish: writes `text` to `tmp`, reads it back, and
/// only renames onto `final_path` when the bytes on disk are exactly
/// the bytes intended.  A write that silently tears (a full disk
/// swallowing the tail, the short-write fault) is caught here instead
/// of being renamed into a permanently corrupt wire file; the temp is
/// removed and the caller retries later.  False on any step failing.
[[nodiscard]] bool publish_verified(const fault::Env& env,
                                    const std::string& tmp,
                                    const std::string& final_path,
                                    const std::string& text);

/// Client side of the queue: submits query files and polls for answers.
/// Stateless apart from a temp-name sequence; one client may be shared
/// by threads, and any number of client processes may point at one
/// service root.
class ServiceClient {
 public:
  explicit ServiceClient(std::string root);

  /// Atomically publishes a query-v1 file.  False (diagnosing into
  /// `error` when given) on a bad id or an I/O failure.
  bool submit(const ServiceQuery& query, std::string* error = nullptr) const;

  /// True when the answer for `id` has been published; false while
  /// still pending.  Accepts answer-v1 only: a published file that is
  /// not an answer-v1 reports status=error with the parse diagnostic,
  /// so a client never spins forever on a mangled file.
  bool try_poll(const std::string& id, ServiceAnswer& out) const;

  /// Polls every poll_ms until the answer lands or timeout_ms passes.
  bool wait(const std::string& id, ServiceAnswer& out,
            std::uint64_t timeout_ms, std::uint64_t poll_ms = 2) const;

  /// Atomically publishes a query-v2 file.  Same contract as submit():
  /// false on a bad id, an empty/oversized batch, or I/O failure.
  bool submit_batch(const ServiceBatchQuery& query,
                    std::string* error = nullptr) const;

  /// Batch counterpart of try_poll; accepts both answer dialects (an
  /// answer-v1, e.g. the error that rejects a malformed batch wholesale,
  /// is one part).  A published answer that parses as neither surfaces
  /// as a single status=error part, so a batch client never spins on a
  /// mangled file.
  bool try_poll_batch(const std::string& id, ServiceBatchAnswer& out) const;

  bool wait_batch(const std::string& id, ServiceBatchAnswer& out,
                  std::uint64_t timeout_ms, std::uint64_t poll_ms = 2) const;

 private:
  /// The one publish path of submit() and submit_batch().
  bool publish_query(const std::string& id, const std::string& text,
                     std::string* error) const;

  const fault::Env* env_;  ///< resolved at construction (fault seam)
  std::string root_;
  mutable std::atomic<std::uint64_t> seq_{0};  ///< unique temp names
};

}  // namespace snug::sim::service
