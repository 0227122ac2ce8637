#include "sim/service/wire.hpp"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/str.hpp"

namespace snug::sim::service {
namespace {

constexpr const char* kQueryMagic = "query-v1";
constexpr const char* kAnswerMagic = "answer-v1";
constexpr const char* kBatchQueryMagic = "query-v2";
constexpr const char* kBatchAnswerMagic = "answer-v2";

const char* status_name(AnswerStatus status) {
  switch (status) {
    case AnswerStatus::kOk: return "ok";
    case AnswerStatus::kError: return "error";
    case AnswerStatus::kRetryAfter: return "retry-after";
  }
  return "?";
}

bool parse_status(const std::string& s, AnswerStatus& status,
                  std::string& error) {
  for (const AnswerStatus st : {AnswerStatus::kOk, AnswerStatus::kError,
                                AnswerStatus::kRetryAfter}) {
    if (s == status_name(st)) {
      status = st;
      return true;
    }
  }
  error = "unknown status '" + s + "'";
  return false;
}

/// The payload key a status carries ("" for ok).
const char* payload_key(AnswerStatus status) {
  switch (status) {
    case AnswerStatus::kError: return "error";
    case AnswerStatus::kRetryAfter: return "retry-after-ms";
    case AnswerStatus::kOk: break;
  }
  return "";
}

/// Splits "key=value"; false when the line has no '='.
bool split_kv(const std::string& line, std::string& key,
              std::string& value) {
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return false;
  key = line.substr(0, eq);
  value = line.substr(eq + 1);
  return true;
}

std::string id_error(const std::string& id) {
  return "bad query id '" + id + "' ([A-Za-z0-9._-]+, max 128)";
}

/// "status=<s>", then the payload that status carries, `sep`-separated:
/// '\n' in answer-v1 (own lines), ' ' in answer-v2 (the part line).
template <typename Part>
void append_status(std::string& out, const Part& part, char sep) {
  out += "status=";
  out += status_name(part.status);
  if (part.status == AnswerStatus::kError) {
    out += sep;
    out += "error=" + part.error;
  } else if (part.status == AnswerStatus::kRetryAfter) {
    out += sep;
    out += strf("retry-after-ms=%llu",
                static_cast<unsigned long long>(part.retry_after_ms));
  }
}

/// Sets the payload field `key` (error= or retry-after-ms=) of `part`.
bool parse_payload(const std::string& key, const std::string& value,
                   BatchPart& part, std::string& error) {
  if (key == "error") {
    part.error = value;
  } else if (!parse_u64(value, part.retry_after_ms)) {
    error = "bad retry-after-ms '" + value + "'";
    return false;
  }
  return true;
}

/// "<combo> ipc=<v>,<v>,...".  %.17g round-trips an IEEE double exactly:
/// resumed-server answers byte-compare against an uninterrupted run's.
void append_cell(std::string& out, const AnswerCell& cell) {
  out += cell.combo + " ipc=";
  for (std::size_t i = 0; i < cell.ipc.size(); ++i) {
    out += strf(i == 0 ? "%.17g" : ",%.17g", cell.ipc[i]);
  }
}

bool parse_cell(const std::string& text, AnswerCell& out) {
  const std::size_t sep = text.find(" ipc=");
  if (sep == std::string::npos || sep == 0) return false;
  out.combo = text.substr(0, sep);
  for (const std::string& tok : split(text.substr(sep + 5), ',')) {
    if (tok.empty()) return false;
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out.ipc.push_back(v);
  }
  return !out.ipc.empty();
}

/// Splits "<index><sep><rest>" with a strict index below `bound`.
bool split_index(const std::string& text, char sep, std::size_t bound,
                 std::size_t& index, std::string& rest) {
  const std::size_t at = text.find(sep);
  std::uint64_t i = 0;
  if (at == std::string::npos || !parse_u64(text.substr(0, at), i) ||
      i >= bound) {
    return false;
  }
  index = static_cast<std::size_t>(i);
  rest = text.substr(at + 1);
  return true;
}

/// Reads and parses the answer file at `path`: false while none is
/// published; otherwise true, with `error` empty when it parsed.
bool poll_answer(const fault::Env& env, const std::string& path,
                 ServiceBatchAnswer& out, WireDialect& dialect,
                 std::string& error) {
  std::vector<std::byte> raw;
  if (!env.read_file(path, raw)) return false;
  const std::string text(reinterpret_cast<const char*>(raw.data()),
                         raw.size());
  error.clear();
  (void)parse_answer(text, out, dialect, error);
  return true;
}

/// Polls until `poll` succeeds or `timeout_ms` passes.
template <typename Poll>
bool poll_until(std::uint64_t timeout_ms, std::uint64_t poll_ms, Poll poll) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (poll()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(poll_ms > 0 ? poll_ms : 1));
  }
}

}  // namespace

bool valid_query_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string submit_dir(const std::string& root) { return root + "/submit"; }
std::string answer_dir(const std::string& root) { return root + "/answers"; }

std::string query_path(const std::string& root, const std::string& id) {
  return submit_dir(root) + "/" + id + ".query";
}

std::string answer_path(const std::string& root, const std::string& id) {
  return answer_dir(root) + "/" + id + ".answer";
}

std::string encode_query(const ServiceQuery& query) {
  std::string out = kQueryMagic;
  out += "\nid=" + query.id;
  out += "\nscenario=" + query.scenario_text;
  out += "\nscheme=" + query.scheme_id;
  out += '\n';
  return out;
}

std::string encode_batch_query(const ServiceBatchQuery& query) {
  std::string out = kBatchQueryMagic;
  out += "\nid=" + query.id;
  for (const BatchItem& item : query.items) {
    out += "\nquery=" + item.scheme_id + "|" + item.scenario_text;
  }
  out += '\n';
  return out;
}

bool parse_batch_item(const std::string& text, BatchItem& out) {
  const std::size_t sep = text.find('|');
  if (sep == std::string::npos || sep == 0 || sep + 1 == text.size()) {
    return false;
  }
  out.scheme_id = text.substr(0, sep);
  out.scenario_text = text.substr(sep + 1);
  return true;
}

bool parse_query(const std::string& text, ServiceBatchQuery& out,
                 WireDialect& dialect, std::string& error) {
  ServiceBatchQuery q;
  WireDialect d = WireDialect::kV1;
  bool saw_magic = false;
  // v1: the one item's fields, on their own lines (the last one wins).
  BatchItem single;
  bool saw_scenario = false;
  bool saw_scheme = false;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line == kBatchQueryMagic) {
        d = WireDialect::kV2;
      } else if (line != kQueryMagic) {
        // The pre-batch server's wording, kept so a rejected file's
        // answer stays byte-identical.
        error = strf("query does not start with '%s'", kQueryMagic);
        return false;
      }
      saw_magic = true;
      continue;
    }
    const bool v1 = d == WireDialect::kV1;
    const char* noun = v1 ? "query" : "batch query";
    std::string key;
    std::string value;
    if (!split_kv(line, key, value)) {
      error = strf("bad %s line '%s'", noun, line.c_str());
      return false;
    }
    if (key == "id") {
      q.id = value;
    } else if (v1 && key == "scenario") {
      single.scenario_text = value;
      saw_scenario = true;
    } else if (v1 && key == "scheme") {
      single.scheme_id = value;
      saw_scheme = true;
    } else if (!v1 && key == "query") {
      BatchItem item;
      if (!parse_batch_item(value, item)) {
        error = "bad batch item '" + line +
                "' (want query=<scheme>|<scenario>)";
        return false;
      }
      if (q.items.size() >= kMaxBatchItems) {
        error = strf("batch exceeds %zu items", kMaxBatchItems);
        return false;
      }
      q.items.push_back(std::move(item));
    } else {
      error = strf("unknown %s key '%s'", noun, key.c_str());
      return false;
    }
  }
  if (!saw_magic) {
    error = "empty query";
    return false;
  }
  if (!valid_query_id(q.id)) {
    error = id_error(q.id);
    return false;
  }
  if (d == WireDialect::kV1) {
    if (!saw_scenario || !saw_scheme) {
      error = "query is missing scenario= or scheme=";
      return false;
    }
    q.items.push_back(std::move(single));
  } else if (q.items.empty()) {
    error = "batch query has no query= lines";
    return false;
  }
  out = std::move(q);
  dialect = d;
  return true;
}

std::string encode_answer(const ServiceAnswer& answer) {
  std::string out = kAnswerMagic;
  out += "\nid=" + answer.id;
  out += '\n';
  append_status(out, answer, '\n');
  for (const AnswerCell& cell : answer.cells) {
    out += "\ncell=";
    append_cell(out, cell);
  }
  out += '\n';
  return out;
}

std::string encode_batch_answer(const ServiceBatchAnswer& answer) {
  std::string out = kBatchAnswerMagic;
  out += "\nid=" + answer.id;
  out += strf("\nparts=%zu", answer.parts.size());
  for (std::size_t i = 0; i < answer.parts.size(); ++i) {
    out += strf("\npart=%zu ", i);
    append_status(out, answer.parts[i], ' ');
  }
  for (std::size_t i = 0; i < answer.parts.size(); ++i) {
    for (const AnswerCell& cell : answer.parts[i].cells) {
      out += strf("\ncell=%zu/", i);
      append_cell(out, cell);
    }
  }
  out += '\n';
  return out;
}

bool parse_answer(const std::string& text, ServiceBatchAnswer& out,
                  WireDialect& dialect, std::string& error) {
  ServiceBatchAnswer a;
  WireDialect d = WireDialect::kV1;
  bool saw_magic = false;
  // v1: status= and its payload arrive on separate lines, in any order
  // and possibly repeated (the last one wins); checked after the loop.
  bool saw_status = false;
  std::vector<std::string> v1_payloads;
  // v2: parts= fixes the part count; each part line appears once.
  bool saw_parts = false;
  std::vector<bool> part_seen;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line == kBatchAnswerMagic) {
        d = WireDialect::kV2;
      } else if (line == kAnswerMagic) {
        a.parts.resize(1);
      } else {
        error = strf("answer does not start with '%s' or '%s'", kAnswerMagic,
                     kBatchAnswerMagic);
        return false;
      }
      saw_magic = true;
      continue;
    }
    const bool v1 = d == WireDialect::kV1;
    std::string key;
    std::string value;
    if (!split_kv(line, key, value)) {
      error = strf("bad %s line '%s'", v1 ? "answer" : "batch answer",
                   line.c_str());
      return false;
    }
    if (key == "id") {
      a.id = value;
    } else if (v1 && key == "status") {
      if (!parse_status(value, a.parts[0].status, error)) return false;
      saw_status = true;
    } else if (v1 && (key == "error" || key == "retry-after-ms")) {
      if (!parse_payload(key, value, a.parts[0], error)) return false;
      v1_payloads.push_back(key);
    } else if (!v1 && key == "parts") {
      std::uint64_t n = 0;
      if (!parse_u64(value, n) || n == 0 || n > kMaxBatchItems) {
        error = "bad parts count '" + value + "'";
        return false;
      }
      a.parts.resize(static_cast<std::size_t>(n));
      part_seen.assign(a.parts.size(), false);
      saw_parts = true;
    } else if (!v1 && !saw_parts && (key == "part" || key == "cell")) {
      error = key + "= line before parts=";
      return false;
    } else if (!v1 && key == "part") {
      // "part=<i> status=<s>[ <payload>]": the status runs to the first
      // space; the payload (error text may hold spaces) is the rest.
      std::size_t i = 0;
      std::string rest;
      std::string skey;
      std::string sval;
      if (!split_index(value, ' ', a.parts.size(), i, rest) ||
          !split_kv(rest, skey, sval) || skey != "status") {
        error = "bad part line '" + line + "'";
        return false;
      }
      if (part_seen[i]) {
        error = strf("duplicate part %zu", i);
        return false;
      }
      part_seen[i] = true;
      BatchPart& part = a.parts[i];
      const std::size_t sp = sval.find(' ');
      const std::string status_tok = sval.substr(0, sp);
      const std::string payload =
          sp == std::string::npos ? std::string() : sval.substr(sp + 1);
      if (!parse_status(status_tok, part.status, error)) return false;
      const std::string want = payload_key(part.status);
      std::string pkey;
      std::string pval;
      const bool payload_ok = want.empty()
                                  ? payload.empty()
                                  : split_kv(payload, pkey, pval) &&
                                        pkey == want;
      if (!payload_ok) {
        error = strf("part status=%s needs %s in '%s'",
                     status_name(part.status),
                     want.empty() ? "no payload" : (want + "=").c_str(),
                     line.c_str());
        return false;
      }
      if (!want.empty() && !parse_payload(pkey, pval, part, error)) {
        return false;
      }
    } else if (key == "cell") {
      // v1: "cell=<combo> ipc=..."; v2: "cell=<i>/<combo> ipc=...".
      std::size_t i = 0;
      std::string rest = value;
      AnswerCell cell;
      if ((!v1 && !split_index(value, '/', a.parts.size(), i, rest)) ||
          !parse_cell(rest, cell)) {
        error = "bad cell line '" + line + "'";
        return false;
      }
      a.parts[i].cells.push_back(std::move(cell));
    } else {
      error = strf("unknown %s key '%s'", v1 ? "answer" : "batch answer",
                   key.c_str());
      return false;
    }
  }
  if (!saw_magic) {
    error = "empty answer";
    return false;
  }
  if (d == WireDialect::kV1) {
    if (!saw_status) {
      error = "answer is missing status=";
      return false;
    }
    // A payload the status does not carry would be silently dropped on
    // re-encode, so it is malformed.  (A v1 status may omit its payload.)
    for (const std::string& key : v1_payloads) {
      if (key != payload_key(a.parts[0].status)) {
        error = strf("%s= contradicts status=%s", key.c_str(),
                     status_name(a.parts[0].status));
        return false;
      }
    }
  } else {
    if (!saw_parts) {
      error = "batch answer is missing parts=";
      return false;
    }
    for (std::size_t i = 0; i < part_seen.size(); ++i) {
      if (!part_seen[i]) {
        error = strf("batch answer is missing part %zu", i);
        return false;
      }
    }
  }
  out = std::move(a);
  dialect = d;
  return true;
}

ServiceAnswer single_answer(const ServiceBatchAnswer& answer) {
  ServiceAnswer out;
  out.id = answer.id;
  if (!answer.parts.empty()) {
    const BatchPart& part = answer.parts.front();
    out.status = part.status;
    out.error = part.error;
    out.retry_after_ms = part.retry_after_ms;
    out.cells = part.cells;
  }
  return out;
}

bool publish_verified(const fault::Env& env, const std::string& tmp,
                      const std::string& final_path,
                      const std::string& text) {
  const auto* data = reinterpret_cast<const std::byte*>(text.data());
  if (!env.write_file(tmp, data, text.size())) {
    env.remove(tmp);
    return false;
  }
  // Read back before renaming: write_file reporting success does not
  // mean the bytes landed (ENOSPC tails, torn writes).  The wire files
  // carry no checksum, so this read-back IS the integrity check — a
  // torn temp is discarded here, never published.
  std::vector<std::byte> on_disk;
  if (!env.read_file(tmp, on_disk) || on_disk.size() != text.size() ||
      std::memcmp(on_disk.data(), data, text.size()) != 0) {
    env.remove(tmp);
    return false;
  }
  if (!env.rename(tmp, final_path)) {
    env.remove(tmp);
    return false;
  }
  return true;
}

ServiceClient::ServiceClient(std::string root)
    : env_(&fault::env()), root_(std::move(root)) {
  env_->create_directories(submit_dir(root_));
  env_->create_directories(answer_dir(root_));
}

bool ServiceClient::publish_query(const std::string& id,
                                  const std::string& text,
                                  std::string* error) const {
  if (!valid_query_id(id)) {
    if (error != nullptr) *error = id_error(id);
    return false;
  }
  // Atomic publish: the server must never ingest a half-written query.
  const std::string tmp =
      strf("%s/%s.query.tmp.%ld.%llu", submit_dir(root_).c_str(), id.c_str(),
           static_cast<long>(::getpid()),
           static_cast<unsigned long long>(
               seq_.fetch_add(1, std::memory_order_relaxed)));
  if (!publish_verified(*env_, tmp, query_path(root_, id), text)) {
    if (error != nullptr) *error = "failed to publish " + tmp;
    return false;
  }
  return true;
}

bool ServiceClient::submit(const ServiceQuery& query,
                           std::string* error) const {
  return publish_query(query.id, encode_query(query), error);
}

bool ServiceClient::submit_batch(const ServiceBatchQuery& query,
                                 std::string* error) const {
  if (query.items.empty() || query.items.size() > kMaxBatchItems) {
    if (error != nullptr) {
      *error = strf("batch must carry 1..%zu items, got %zu",
                    kMaxBatchItems, query.items.size());
    }
    return false;
  }
  return publish_query(query.id, encode_batch_query(query), error);
}

bool ServiceClient::try_poll(const std::string& id,
                             ServiceAnswer& out) const {
  ServiceBatchAnswer answer;
  WireDialect dialect = WireDialect::kV1;
  std::string error;
  if (!poll_answer(*env_, answer_path(root_, id), answer, dialect, error)) {
    return false;
  }
  if (error.empty() && dialect != WireDialect::kV1) {
    error = strf("answer does not start with '%s'", kAnswerMagic);
  }
  // An answer that does not parse (bit rot on the answer file) surfaces
  // as an error rather than spinning the client forever.
  out = error.empty() ? single_answer(answer)
                      : ServiceAnswer{id, AnswerStatus::kError,
                                      "unparseable answer: " + error, 0, {}};
  return true;
}

bool ServiceClient::wait(const std::string& id, ServiceAnswer& out,
                         std::uint64_t timeout_ms,
                         std::uint64_t poll_ms) const {
  return poll_until(timeout_ms, poll_ms, [&] { return try_poll(id, out); });
}

bool ServiceClient::try_poll_batch(const std::string& id,
                                   ServiceBatchAnswer& out) const {
  WireDialect dialect = WireDialect::kV2;
  std::string error;
  if (!poll_answer(*env_, answer_path(root_, id), out, dialect, error)) {
    return false;
  }
  if (!error.empty()) {
    out = ServiceBatchAnswer{
        id, {BatchPart{AnswerStatus::kError, "unparseable answer: " + error,
                       0, {}}}};
  }
  return true;
}

bool ServiceClient::wait_batch(const std::string& id,
                               ServiceBatchAnswer& out,
                               std::uint64_t timeout_ms,
                               std::uint64_t poll_ms) const {
  return poll_until(timeout_ms, poll_ms,
                    [&] { return try_poll_batch(id, out); });
}

}  // namespace snug::sim::service
