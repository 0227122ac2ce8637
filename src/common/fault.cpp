#include "common/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "common/str.hpp"

namespace snug::fault {
namespace {

// ---- real filesystem -----------------------------------------------------

class RealEnv final : public Env {
 public:
  bool read_file(const std::string& path, std::vector<std::byte>& out,
                 std::size_t max_bytes) const override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    if (end < 0) return false;
    const std::size_t size =
        std::min(static_cast<std::size_t>(end), max_bytes);
    out.clear();
    out.resize(size);
    in.seekg(0);
    if (size > 0) {
      in.read(reinterpret_cast<char*>(out.data()),
              static_cast<std::streamsize>(size));
      if (!in || static_cast<std::size_t>(in.gcount()) != size) return false;
    }
    return true;
  }

  bool write_file(const std::string& path, const std::byte* data,
                  std::size_t n) const override {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    if (n > 0) {
      out.write(reinterpret_cast<const char*>(data),
                static_cast<std::streamsize>(n));
    }
    out.flush();
    return static_cast<bool>(out);
  }

  bool append_file(const std::string& path, const std::byte* data,
                   std::size_t n) const override {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) return false;
    if (n > 0) {
      out.write(reinterpret_cast<const char*>(data),
                static_cast<std::streamsize>(n));
    }
    out.flush();
    return static_cast<bool>(out);
  }

  bool rename(const std::string& from, const std::string& to)
      const override {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    return !ec;
  }

  void remove(const std::string& path) const override {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

  bool create_directories(const std::string& dir) const override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec;
  }

  std::vector<std::string> list_dir(const std::string& dir) const override {
    std::vector<std::string> names;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) return names;
    for (const auto& entry : it) {
      std::error_code type_ec;
      if (entry.is_regular_file(type_ec)) {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());  // deterministic scan order
    return names;
  }
};

// ---- deterministic decision engine --------------------------------------

class Injector {
 public:
  explicit Injector(FaultPlan plan) : plan_(std::move(plan)) {
    counters_.resize(plan_.clauses.size());
  }

  /// Decides whether one occurrence of (kind, op, key) faults.  The
  /// decision is a pure function of (seed, clause index, key, that
  /// clause's per-key occurrence number) — independent of thread
  /// schedule, so faulty runs replay exactly.  `salt` (when requested)
  /// deterministically picks cut points / bit positions; `stall_ms`
  /// reports the firing stall clause's duration.
  bool fire(Kind kind, Op op, const std::string& key,
            std::uint64_t* salt = nullptr, std::uint64_t* stall_ms = nullptr) {
    bool fired = false;
    for (std::size_t ci = 0; ci < plan_.clauses.size(); ++ci) {
      const Clause& c = plan_.clauses[ci];
      if (c.kind != kind || c.op != op) continue;
      if (!c.match.empty() && key.find(c.match) == std::string::npos) {
        continue;
      }
      std::uint64_t n;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        n = counters_[ci][key]++;
      }
      if (c.first > 0 && n >= c.first) continue;
      if (c.every > 0 && (n + 1) % c.every != 0) continue;
      if (c.prob < 1.0) {
        const std::uint64_t h =
            Rng::derive_seed(key, plan_.seed ^ (0x51ED2700ULL + ci), n);
        if (static_cast<double>(h >> 11) * 0x1.0p-53 >= c.prob) continue;
      }
      bump(kind, op);
      if (salt != nullptr) {
        *salt = Rng::derive_seed(key, plan_.seed ^ (0xA17C0000ULL + ci), ~n);
      }
      if (stall_ms != nullptr) *stall_ms = c.stall_ms;
      fired = true;
    }
    return fired;
  }

  [[nodiscard]] FaultStats stats() const {
    FaultStats s;
    s.short_writes = short_writes_.load(std::memory_order_relaxed);
    s.enospc = enospc_.load(std::memory_order_relaxed);
    s.torn_renames = torn_renames_.load(std::memory_order_relaxed);
    s.bit_flips = bit_flips_.load(std::memory_order_relaxed);
    s.stalls = stalls_.load(std::memory_order_relaxed);
    s.read_failures = read_failures_.load(std::memory_order_relaxed);
    s.task_failures = task_failures_.load(std::memory_order_relaxed);
    s.lease_denials = lease_denials_.load(std::memory_order_relaxed);
    s.heartbeat_drops = heartbeat_drops_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void bump(Kind kind, Op op) {
    switch (kind) {
      case Kind::kShortWrite:
        short_writes_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Kind::kEnospc:
        enospc_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Kind::kTornRename:
        torn_renames_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Kind::kBitFlip:
        bit_flips_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Kind::kStall:
        stalls_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Kind::kFail:
        switch (op) {
          case Op::kTask:
            task_failures_.fetch_add(1, std::memory_order_relaxed);
            break;
          case Op::kLease:
            lease_denials_.fetch_add(1, std::memory_order_relaxed);
            break;
          case Op::kHeartbeat:
            heartbeat_drops_.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            read_failures_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        break;
    }
  }

  FaultPlan plan_;
  std::mutex mu_;
  /// Per-clause, per-key occurrence counters (first=/every= windows).
  std::vector<std::map<std::string, std::uint64_t>> counters_;
  std::atomic<std::uint64_t> short_writes_{0};
  std::atomic<std::uint64_t> enospc_{0};
  std::atomic<std::uint64_t> torn_renames_{0};
  std::atomic<std::uint64_t> bit_flips_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> read_failures_{0};
  std::atomic<std::uint64_t> task_failures_{0};
  std::atomic<std::uint64_t> lease_denials_{0};
  std::atomic<std::uint64_t> heartbeat_drops_{0};
};

void flip_one_bit(std::byte* data, std::size_t n, std::uint64_t salt) {
  const std::uint64_t bit = salt % (n * 8);
  data[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
}

// ---- fault-injecting Env wrapper ----------------------------------------

class FaultyEnv final : public Env {
 public:
  FaultyEnv(Env& base, std::shared_ptr<Injector> injector)
      : base_(base), inj_(std::move(injector)) {}

  bool read_file(const std::string& path, std::vector<std::byte>& out,
                 std::size_t max_bytes) const override {
    stall(Op::kRead, path);
    if (inj_->fire(Kind::kFail, Op::kRead, path)) return false;
    if (!base_.read_file(path, out, max_bytes)) return false;
    std::uint64_t salt;
    if (!out.empty() &&
        inj_->fire(Kind::kBitFlip, Op::kRead, path, &salt)) {
      flip_one_bit(out.data(), out.size(), salt);
    }
    return true;
  }

  bool write_file(const std::string& path, const std::byte* data,
                  std::size_t n) const override {
    stall(Op::kWrite, path);
    std::uint64_t salt;
    if (inj_->fire(Kind::kEnospc, Op::kWrite, path, &salt)) {
      // Disk fills mid-write: a prefix lands, then the write errors.
      if (n > 0) base_.write_file(path, data, n / 2);
      return false;
    }
    std::vector<std::byte> flipped;
    if (n > 0 && inj_->fire(Kind::kBitFlip, Op::kWrite, path, &salt)) {
      flipped.assign(data, data + n);
      flip_one_bit(flipped.data(), n, salt);
      data = flipped.data();
    }
    if (n > 0 && inj_->fire(Kind::kShortWrite, Op::kWrite, path, &salt)) {
      // The torn store a kill -9 leaves: truncated on disk, but the
      // caller is told it succeeded and will publish the file.
      return base_.write_file(path, data, salt % n);
    }
    return base_.write_file(path, data, n);
  }

  bool append_file(const std::string& path, const std::byte* data,
                   std::size_t n) const override {
    stall(Op::kWrite, path);
    std::uint64_t salt;
    if (inj_->fire(Kind::kEnospc, Op::kWrite, path, &salt)) {
      if (n > 0) base_.append_file(path, data, n / 2);
      return false;
    }
    std::vector<std::byte> flipped;
    if (n > 0 && inj_->fire(Kind::kBitFlip, Op::kWrite, path, &salt)) {
      flipped.assign(data, data + n);
      flip_one_bit(flipped.data(), n, salt);
      data = flipped.data();
    }
    if (n > 0 && inj_->fire(Kind::kShortWrite, Op::kWrite, path, &salt)) {
      return base_.append_file(path, data, salt % n);
    }
    return base_.append_file(path, data, n);
  }

  bool rename(const std::string& from, const std::string& to)
      const override {
    stall(Op::kRename, to);
    if (inj_->fire(Kind::kTornRename, Op::kRename, to)) {
      // Crash between temp write and publish: the rename never happens,
      // the temp stays behind as an orphan, and — like the real failure
      // mode — nobody is told.
      return true;
    }
    return base_.rename(from, to);
  }

  void remove(const std::string& path) const override { base_.remove(path); }

  bool create_directories(const std::string& dir) const override {
    return base_.create_directories(dir);
  }

  std::vector<std::string> list_dir(const std::string& dir) const override {
    return base_.list_dir(dir);
  }

 private:
  void stall(Op op, const std::string& key) const {
    std::uint64_t ms = 0;
    if (inj_->fire(Kind::kStall, op, key, nullptr, &ms) && ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }

  Env& base_;
  std::shared_ptr<Injector> inj_;
};

// ---- installation --------------------------------------------------------

RealEnv& real_env_instance() {
  static RealEnv instance;
  return instance;
}

std::atomic<Env*> g_env{nullptr};            // nullptr -> real
std::atomic<Injector*> g_task_injector{nullptr};

// ---- grammar -------------------------------------------------------------

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kShortWrite: return "short-write";
    case Kind::kEnospc: return "enospc";
    case Kind::kTornRename: return "torn-rename";
    case Kind::kBitFlip: return "bit-flip";
    case Kind::kStall: return "stall";
    case Kind::kFail: return "fail";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kRename: return "rename";
    case Op::kTask: return "task";
    case Op::kLease: return "lease";
    case Op::kHeartbeat: return "heartbeat";
  }
  return "?";
}

bool kind_from_name(const std::string& s, Kind& kind) {
  for (const Kind k : {Kind::kShortWrite, Kind::kEnospc, Kind::kTornRename,
                       Kind::kBitFlip, Kind::kStall, Kind::kFail}) {
    if (s == kind_name(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

bool op_from_name(const std::string& s, Op& op) {
  for (const Op o : {Op::kRead, Op::kWrite, Op::kRename, Op::kTask,
                     Op::kLease, Op::kHeartbeat}) {
    if (s == op_name(o)) {
      op = o;
      return true;
    }
  }
  return false;
}

bool op_allowed(Kind kind, Op op) {
  switch (kind) {
    case Kind::kShortWrite:
    case Kind::kEnospc:
      return op == Op::kWrite;
    case Kind::kTornRename:
      return op == Op::kRename;
    case Kind::kBitFlip:
      return op == Op::kRead || op == Op::kWrite;
    case Kind::kFail:
      return op == Op::kRead || op == Op::kTask || op == Op::kLease ||
             op == Op::kHeartbeat;
    case Kind::kStall:
      return true;
  }
  return false;
}

}  // namespace

bool FaultPlan::parse(const std::string& text, FaultPlan& plan,
                      std::string& error) {
  plan = FaultPlan{};
  error.clear();
  for (const std::string& raw : split(text, ';')) {
    const std::string clause_text = trim(raw);
    if (clause_text.empty()) continue;

    if (clause_text.rfind("seed=", 0) == 0) {
      if (!parse_u64(clause_text.substr(5), plan.seed)) {
        error = "bad seed clause '" + clause_text + "'";
        return false;
      }
      continue;
    }

    const std::size_t at = clause_text.find('@');
    if (at == std::string::npos) {
      error = "clause '" + clause_text +
              "' is not <kind>@<op> (or seed=N)";
      return false;
    }
    Clause clause;
    if (!kind_from_name(trim(clause_text.substr(0, at)), clause.kind)) {
      error = "unknown fault kind in '" + clause_text +
              "' (short-write, enospc, torn-rename, bit-flip, stall, fail)";
      return false;
    }
    const std::size_t colon = clause_text.find(':', at);
    const std::string op_text = trim(
        clause_text.substr(at + 1, colon == std::string::npos
                                       ? std::string::npos
                                       : colon - at - 1));
    if (!op_from_name(op_text, clause.op)) {
      error = "unknown op in '" + clause_text +
              "' (read, write, rename, task, lease, heartbeat)";
      return false;
    }
    if (!op_allowed(clause.kind, clause.op)) {
      error = strf("'%s' cannot apply to op '%s'", kind_name(clause.kind),
                   op_name(clause.op));
      return false;
    }

    if (colon != std::string::npos) {
      for (const std::string& raw_kv :
           split(clause_text.substr(colon + 1), ',')) {
        const std::string kv = trim(raw_kv);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          error = "bad parameter '" + kv + "' in '" + clause_text + "'";
          return false;
        }
        const std::string key = trim(kv.substr(0, eq));
        const std::string val = trim(kv.substr(eq + 1));
        if (key == "p") {
          char* end = nullptr;
          clause.prob = std::strtod(val.c_str(), &end);
          // Written so NaN, which fails every comparison, is refused.
          if (end == nullptr || *end != '\0' ||
              !(clause.prob > 0.0 && clause.prob <= 1.0)) {
            error = "p= must be in (0, 1] in '" + clause_text + "'";
            return false;
          }
        } else if (key == "first") {
          if (!parse_u64(val, clause.first) || clause.first == 0) {
            error = "first= must be a positive integer in '" + clause_text +
                    "'";
            return false;
          }
        } else if (key == "every") {
          if (!parse_u64(val, clause.every) || clause.every == 0) {
            error = "every= must be a positive integer in '" + clause_text +
                    "'";
            return false;
          }
        } else if (key == "ms") {
          if (!parse_u64(val, clause.stall_ms) || clause.stall_ms == 0) {
            error = "ms= must be a positive integer in '" + clause_text +
                    "'";
            return false;
          }
        } else if (key == "match") {
          if (val.empty()) {
            error = "match= must not be empty in '" + clause_text + "'";
            return false;
          }
          clause.match = val;
        } else {
          error = "unknown parameter '" + key + "' in '" + clause_text +
                  "' (p, first, every, ms, match)";
          return false;
        }
      }
    }
    if (clause.kind == Kind::kStall && clause.stall_ms == 0) {
      error = "stall clause '" + clause_text + "' needs ms=";
      return false;
    }
    plan.clauses.push_back(std::move(clause));
  }
  if (plan.clauses.empty()) {
    error = "fault plan has no clauses";
    return false;
  }
  return true;
}

std::string FaultPlan::summary() const {
  std::string out = strf("seed=%llu",
                         static_cast<unsigned long long>(seed));
  for (const Clause& c : clauses) {
    out += strf("; %s@%s", kind_name(c.kind), op_name(c.op));
    // Emit the clause grammar itself, so a summary re-parses to the
    // same plan (pinned by tests/sim/fault_injection_test.cpp).
    std::string params;
    const auto add = [&params](const std::string& kv) {
      params += (params.empty() ? ":" : ",") + kv;
    };
    if (c.prob < 1.0) {
      // Shortest text that reads back as the same double (%g's six
      // digits would print 0.9999999 as 1, dropping the clause's p=).
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, c.prob);
      add("p=" + std::string(buf, res.ptr));
    }
    if (c.first > 0) {
      add(strf("first=%llu", static_cast<unsigned long long>(c.first)));
    }
    if (c.every > 0) {
      add(strf("every=%llu", static_cast<unsigned long long>(c.every)));
    }
    if (c.stall_ms > 0) {
      add(strf("ms=%llu", static_cast<unsigned long long>(c.stall_ms)));
    }
    if (!c.match.empty()) add("match=" + c.match);
    out += params;
  }
  return out;
}

Env& real_env() { return real_env_instance(); }

Env& env() {
  Env* installed = g_env.load(std::memory_order_acquire);
  return installed != nullptr ? *installed : real_env();
}

struct ScopedFaultPlan::Impl {
  std::shared_ptr<Injector> injector;
  std::unique_ptr<FaultyEnv> faulty;
  Env* prev_env = nullptr;
  Injector* prev_task = nullptr;
};

ScopedFaultPlan::ScopedFaultPlan(const FaultPlan& plan)
    : impl_(std::make_unique<Impl>()) {
  impl_->injector = std::make_shared<Injector>(plan);
  impl_->faulty = std::make_unique<FaultyEnv>(env(), impl_->injector);
  impl_->prev_env = g_env.exchange(impl_->faulty.get(),
                                   std::memory_order_acq_rel);
  impl_->prev_task = g_task_injector.exchange(impl_->injector.get(),
                                              std::memory_order_acq_rel);
}

ScopedFaultPlan::~ScopedFaultPlan() {
  g_env.store(impl_->prev_env, std::memory_order_release);
  g_task_injector.store(impl_->prev_task, std::memory_order_release);
}

FaultStats ScopedFaultPlan::stats() const { return impl_->injector->stats(); }

void maybe_fail_task(const std::string& label) {
  Injector* inj = g_task_injector.load(std::memory_order_acquire);
  if (inj == nullptr) return;
  std::uint64_t ms = 0;
  if (inj->fire(Kind::kStall, Op::kTask, label, nullptr, &ms) && ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (inj->fire(Kind::kFail, Op::kTask, label)) {
    throw TransientError("injected transient failure: " + label);
  }
}

namespace {

/// Shared shape of the two supervision hooks: stall, then fail-or-not.
bool supervision_fault(Op op, const std::string& label) {
  Injector* inj = g_task_injector.load(std::memory_order_acquire);
  if (inj == nullptr) return false;
  std::uint64_t ms = 0;
  if (inj->fire(Kind::kStall, op, label, nullptr, &ms) && ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  return inj->fire(Kind::kFail, op, label);
}

}  // namespace

bool maybe_deny_lease(const std::string& label) {
  return supervision_fault(Op::kLease, label);
}

bool maybe_drop_heartbeat(const std::string& label) {
  return supervision_fault(Op::kHeartbeat, label);
}

bool plan_installed() noexcept {
  return g_env.load(std::memory_order_acquire) != nullptr;
}

FaultStats installed_stats() noexcept {
  Injector* inj = g_task_injector.load(std::memory_order_acquire);
  return inj != nullptr ? inj->stats() : FaultStats{};
}

}  // namespace snug::fault
