// Measurement helpers for perfbench: sample summaries, in-memory spans
// with self-time arithmetic, a result digest and a minimal JSON writer.
// Header-only and free of simulator types so the self-tests can pin the
// arithmetic in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- samples

/// Linear-interpolated quantile (q in [0, 1]) of an ascending sample.
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A timing reported as its median plus the highest percentile, capped at
/// p99, that still has at least ten samples beyond it — always with the
/// sample count.  `tail_pct` is 100 when fewer than 20 samples leave no
/// percentile above the median with ten beyond it; `tail` is then the
/// slowest sample (cold_grid's 18 cells, where the slowest cell bounds
/// the campaign).
struct Dist {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// The percentile ladder the tail walks down; p99 caps it so that a
/// faster program (more samples in the same run length) never moves the
/// reported percentile.
inline constexpr double kTailLadder[] = {99.0, 98.0, 95.0, 90.0, 75.0};

inline Dist summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = quantile_sorted(v, 0.5);
  for (const double pct : kTailLadder) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 - 1e-9) {
      d.tail_pct = pct;
      d.tail = quantile_sorted(v, pct / 100.0);
      return d;
    }
  }
  d.tail_pct = 100.0;
  d.tail = v.back();
  return d;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// An operation's latency and the time, from the start of the measured
/// window, at which it finished.
struct TimedOp {
  double at = 0.0;
  double value = 0.0;
};

/// The ops that finished in each block of `block_s` seconds of a measured
/// window of `window` seconds (the last block absorbs the remainder).
inline std::vector<std::vector<double>> split_blocks(const std::vector<TimedOp>& ops,
                                                     double window, double block_s) {
  if (ops.empty() || window <= 0.0 || block_s <= 0.0) return {};
  const auto blocks =
      std::max<std::size_t>(1, static_cast<std::size_t>(window / block_s));
  std::vector<std::vector<double>> per(blocks);
  for (const TimedOp& op : ops) {
    const auto b = static_cast<std::size_t>(op.at / window * static_cast<double>(blocks));
    per[std::min(b, blocks - 1)].push_back(op.value);
  }
  return per;
}

/// Each non-empty block's median, in time order.
inline std::vector<double> block_medians(const std::vector<TimedOp>& ops,
                                         double window, double block_s) {
  std::vector<double> out;
  for (auto& v : split_blocks(ops, window, block_s)) {
    if (!v.empty()) out.push_back(median(std::move(v)));
  }
  return out;
}

/// Each non-empty block's op count per second, in time order.
inline std::vector<double> block_rates(const std::vector<TimedOp>& ops,
                                       double window, double block_s) {
  const auto per = split_blocks(ops, window, block_s);
  std::vector<double> out;
  for (const auto& v : per) {
    if (!v.empty()) {
      out.push_back(static_cast<double>(v.size()) * static_cast<double>(per.size()) /
                    window);
    }
  }
  return out;
}

/// The median latency averaged over time: each block's median, averaged
/// over the blocks.  On a shared host whose speed flips between phases
/// lasting seconds, the pooled median jumps between the phases' levels as
/// their shares cross one half; this mean moves in proportion to the
/// shares.
inline double block_mean_median(const std::vector<TimedOp>& ops, double window,
                                double block_s) {
  const std::vector<double> m = block_medians(ops, window, block_s);
  if (m.empty()) return 0.0;
  double sum = 0.0;
  for (double v : m) sum += v;
  return sum / static_cast<double>(m.size());
}

/// The median latency of the slowest block, and the op rate of the
/// slowest block.  The shares of a shared host's fast and slow phases in
/// a run of seconds are a matter of chance, so any average over the run
/// moves between the phases' levels from run to run; the slowest block
/// reads the slow phase's level, which every run visits.
inline double slowest_block_median(const std::vector<TimedOp>& ops, double window,
                                   double block_s) {
  const std::vector<double> m = block_medians(ops, window, block_s);
  return m.empty() ? 0.0 : *std::max_element(m.begin(), m.end());
}

inline double slowest_block_rate(const std::vector<TimedOp>& ops, double window,
                                 double block_s) {
  const std::vector<double> r = block_rates(ops, window, block_s);
  return r.empty() ? 0.0 : *std::min_element(r.begin(), r.end());
}

/// The tail latency robust to a short stall of the host: the measured
/// window is cut into blocks of `block_s` seconds, each block's tail is
/// taken by summarize()'s rule, and the median over blocks is returned.
/// A stall burst that lifts one block's tail of several does not move it.
inline double block_median_tail(const std::vector<TimedOp>& ops, double window,
                                double block_s) {
  std::vector<double> tails;
  for (auto& v : split_blocks(ops, window, block_s)) {
    if (!v.empty()) tails.push_back(summarize(std::move(v)).tail);
  }
  return tails.empty() ? 0.0 : median(std::move(tails));
}

// --------------------------------------------------------- set-up schedule

/// The measured window of a workload that repeats its set-up during the
/// window.  Set-up 0 runs before it; set-ups 1..reps-1 fall due at evenly
/// spaced points of measured time, and the window's clock stops while
/// one runs, so at() and measuring() count measured time only.  A few
/// consecutive set-ups all land in one phase of a shared host; spread
/// over the run, their median follows the phases the run saw.
class SetupSchedule {
 public:
  SetupSchedule(double seconds, int reps)
      : seconds_(seconds), reps_(reps), start_(Clock::now()) {}

  /// Measured seconds from the window's start to `t`.
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(start_, t);
  }
  [[nodiscard]] bool measuring() const { return at(Clock::now()) < seconds_; }
  [[nodiscard]] bool setup_due() const {
    return done_ < reps_ &&
           at(Clock::now()) >= seconds_ * static_cast<double>(done_) / reps_;
  }
  [[nodiscard]] int reps_left() const { return reps_ - done_; }
  /// The index of the next set-up, counted as done.
  int next_rep() { return done_++; }
  /// Runs `f` with the window's clock stopped.
  template <class F>
  void paused(F&& f) {
    const auto p0 = Clock::now();
    f();
    start_ += Clock::now() - p0;
  }

 private:
  double seconds_;
  int reps_;
  int done_ = 1;
  Clock::time_point start_;
};

// ------------------------------------------------------------------ spans

/// One traced interval.  `parent` is 0 for a root span; spans of one
/// operation (a cell, a render, a query) share `trace`.  `estimated`
/// marks a layer span whose duration was derived from an isolated
/// calibration rather than timed in place (see README.md).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  bool estimated = false;
};

/// In-memory span recorder; spans are written out once, at exit.
/// Thread-safe: campaign workers record concurrently.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  std::uint64_t record(std::string name, std::uint64_t parent,
                       std::uint64_t trace, double start, double end,
                       bool estimated = false) {
    const std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.trace = trace;
    s.name = std::move(name);
    s.start = start;
    s.end = end;
    s.estimated = estimated;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once,
/// parts of a child outside the parent not at all).  Keyed by span id.
inline std::map<std::uint64_t, double> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double run_lo = 0.0;
      double run_hi = -1.0;
      for (const auto& [lo0, hi0] : iv) {
        const double lo = std::max(lo0, s.start);
        const double hi = std::min(hi0, s.end);
        if (hi <= lo) continue;
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    out[s.id] = (s.end - s.start) - covered;
  }
  return out;
}

/// Sum of self times per span name.
inline std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += self.at(s.id);
  return out;
}

// ----------------------------------------------------------------- digest

/// FNV-1a 64 — the same hash the golden figure test pins outputs with.
class Digest {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------------------- JSON

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// A number with every digit (%.17g); non-finite values become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered JSON object builder: values are inserted pre-rendered.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
