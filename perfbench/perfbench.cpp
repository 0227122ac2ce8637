// perfbench — the repository benchmark program (see README.md).
//
//   perfbench --workload=<cold_grid|warm_render|service_mix> --seed=<n>
//             --seconds=<s> --trace=<0|1> --workdir=<dir>
//             [--spans-out=<file>] [--commit=<id>] [--tiny]
//   perfbench --selftest --workdir=<dir>
//
// Every workload drives the simulator only through its public campaign,
// runner and service APIs.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// carry the host descriptor and the workload detail (per-kind latency
// distributions with sample counts, output digests, the modelled-
// accuracy readout).  With --trace=1 the metrics are the per-layer ones
// and the spans are written to --spans-out at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "harness.hpp"
#include "schemes/factory.hpp"
#include "schemes/snug_scheme.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/figures.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/service/client.hpp"
#include "sim/service/index.hpp"
#include "sim/service/server.hpp"
#include "sim/service/wire.hpp"
#include "sim/system.hpp"
#include "stats/counters.hpp"
#include "trace/workloads.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;
using namespace snug;

namespace {

// ------------------------------------------------------------- constants

/// Campaign workers on cold_grid and service workers on service_mix.
/// The benchmark host has 4 vCPUs shared with other tenants; two
/// workers keep one core free for the client thread and the noise low.
constexpr unsigned kJobs = 2;

/// Reduced run scale of the warm grid that warm_render and service_mix
/// pre-populate during set-up.  Entry size does not depend on scale, so
/// the store/render/service costs are those of the paper grid.
constexpr Cycle kWarmGridWarmup = 20'000;
constexpr Cycle kWarmGridMeasure = 20'000;

/// Scale of a service_mix miss: a fresh scenario simulated end to end
/// (backlog -> lease -> simulate -> journal -> store -> publish).
constexpr Cycle kMissWarmup = 10'000;
constexpr Cycle kMissMeasure = 10'000;

/// service_mix query mix, in percent: ring single-cell hits, query-v2
/// sweeps over the ring, file-wire hits; the rest are misses.  No client
/// traffic in the repository fixes a mix, so these are unverified: the
/// misses are the small write-path share campaignd is meant for (a warm
/// cache answers most queries), and the three hit tiers get equal
/// shares, as service_bench puts the same queries through each tier.
constexpr std::size_t kMixRingPct = 32;
constexpr std::size_t kMixSweepPct = 32;
constexpr std::size_t kMixFilePct = 31;

/// service_mix hashes the answers of its first kDigestMisses misses into
/// ipc_digest, and measures until they are answered even when --seconds
/// is shorter, so the digest does not depend on how many queries a run
/// fits in its window.
constexpr std::size_t kDigestMisses = 8;

/// Set-up repetitions per run; setup_s reports their median.  cold_grid
/// repeats its set-up once every kColdSetupGap while the campaign runs,
/// and at least kColdSetupMin times in all.
constexpr auto kColdSetupGap = std::chrono::milliseconds(200);
constexpr std::size_t kColdSetupMin = 11;
constexpr int kWarmSetupReps = 9;

/// Length of the time blocks of which warm_render reports the slowest
/// (ops_per_s, op_ms_p50: harness.hpp slowest_block_*) and over which
/// service_mix averages its miss medians (op_ms_p50: block_mean_median).
constexpr double kBlockSeconds = 1.0;

/// Length of the time blocks over whose tails warm_render and
/// service_mix take the median for op_ms_tail (harness.hpp
/// block_median_tail): long enough for ~1000 renders, so each block's
/// tail is a true p99, or 100-200 service_mix misses, about p90-p95.
constexpr double kTailBlockSeconds = 5.0;

/// Instructions per core synthesized for the cold_grid layer
/// calibration (traced run only).
constexpr std::size_t kCalibInstrs = 1u << 18;

const char* const kE2eNames[] = {"setup_s", "peak_rss_mb", "ops_per_s",
                                 "op_ms_p50", "op_ms_tail"};

// ----------------------------------------------------------------- utils

/// splitmix64: the seed's only consumer, so workload inputs depend on
/// --seed alone and not on any library's RNG algorithm.
struct SeedRng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fmt17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string dist_json(const pb::Dist& d, double scale = 1.0) {
  return pb::JsonObject()
      .num("n", static_cast<double>(d.n))
      .num("p50", d.p50 * scale)
      .num("tail_pct", d.tail_pct)
      .num("tail", d.tail * scale)
      .render();
}

std::string list_json(const std::vector<double>& v, double scale = 1.0) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", i ? ", " : "", v[i] * scale);
    out += buf;
  }
  return out + "]";
}

std::string read_first_line(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (key.empty() || line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
      while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) v.erase(0, 1);
      while (!v.empty() && (v.back() == '\n' || v.back() == ' ')) v.pop_back();
      return v;
    }
  }
  return "unknown";
}

std::string host_json(const std::string& commit) {
  return pb::JsonObject()
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("cpu_model", read_first_line("/proc/cpuinfo", "model name"))
      .str("l2_per_core",
           read_first_line("/sys/devices/system/cpu/cpu0/cache/index2/size", ""))
      .str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("commit", commit)
      .render();
}

std::uint64_t counter(const stats::CounterReport& report,
                      const std::string& component, const std::string& name) {
  for (const auto& cc : report) {
    if (cc.component != component) continue;
    for (const auto& [n, v] : cc.counters) {
      if (n == name) return v;
    }
  }
  return 0;
}

std::string cell_key(const std::string& combo, const std::string& scheme) {
  return combo + "/" + scheme;
}

/// The workload's outcome: the fields of the final result line plus the
/// detail object printed before it.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  pb::JsonObject detail;
  std::vector<pb::Span> spans;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string spans_out;
  std::string commit = "unknown";
};

// ------------------------------------------------------- per-layer table

/// Every per-layer metric, with its unit.  A traced run prints all of
/// them on every workload; a layer the workload does not exercise reads
/// 0 (README.md lists which layer each workload reaches).
struct LayerMetrics {
  std::map<std::string, double> v;
  static const std::vector<std::pair<const char*, const char*>>& table() {
    static const std::vector<std::pair<const char*, const char*>> kTable = {
        {"trace.synth_ns_per_instr", "ns"},
        {"cpu.step_self_s", "s"},
        {"cpu.retired", "count"},
        {"cache.l1_probe_ns", "ns"},
        {"cache.l1d_misses", "count"},
        {"cache.l1i_misses", "count"},
        {"schemes.access_ns", "ns"},
        {"schemes.l2_mpki", "1/kinstr"},
        {"schemes.spills", "count"},
        {"schemes.remote_hits", "count"},
        {"schemes.spill_reuse", "ratio"},
        {"schemes.wbb_stall_cycles", "cycles"},
        {"core.taker_frac", "ratio"},
        {"bus.requests", "count"},
        {"bus.spills", "count"},
        {"bus.utilisation", "ratio"},
        {"bus.wait_cycles", "cycles"},
        {"dram.reads", "count"},
        {"dram.writes", "count"},
        {"dram.queue_cycles", "cycles"},
        {"sim.build_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.measure_s", "s"},
        {"sim.worker_idle_s", "s"},
        {"sim.cell_span_s", "s"},
        {"sim.layer_est_ratio_max", "ratio"},
        {"sim.trace_overhead", "ratio"},
        {"sim.store.open_ms", "ms"},
        {"sim.store.load_us_p50", "us"},
        {"sim.store.store_us_p50", "us"},
        {"sim.store.entry_bytes", "bytes"},
        {"sim.figures.assemble_ms", "ms"},
        {"sim.service.index_build_ms", "ms"},
        {"sim.service.batch_query_us_p50", "us"},
        {"sim.service.file_submit_us_p50", "us"},
        {"sim.service.answer_wait_us_p50", "us"},
        {"sim.service.ring_hit_us_p50", "us"},
        {"sim.service.ring_hit_us_p99", "us"},
        {"sim.service.file_hit_us_p50", "us"},
        {"sim.service.miss_ms_p50", "ms"},
        {"sim.service.cells_from_cache", "count"},
        {"sim.service.cells_simulated", "count"},
        {"sim.service.ring_inline_answers", "count"},
        {"sim.service.submit_scans_skipped", "count"},
        {"sim.service.queries_shed", "count"},
    };
    return kTable;
  }
  void emit(Outcome& out) const {
    for (const auto& [name, unit] : table()) {
      auto it = v.find(name);
      out.metric(name, it == v.end() ? 0.0 : it->second, unit);
    }
  }
};

// ------------------------------------------------------ shared: warm grid

/// The paper's 189-cell grid (21 Table 8 combos x 9 schemes) at the
/// reduced warm-grid scale.  The seed picks the measured window length,
/// so each seed caches different IPCs at the same entry count and size.
sim::CampaignSpec warm_grid_spec(std::uint64_t seed) {
  sim::CampaignSpec spec = sim::CampaignSpec::paper();
  spec.scenario.scale.warmup_cycles = kWarmGridWarmup;
  spec.scenario.scale.measure_cycles = kWarmGridMeasure + 1'000 * (seed % 32);
  return spec;
}

/// Simulates the warm grid into `cache_dir` (the set-up of warm_render
/// and service_mix).  On one worker: with two, the set-up time of whole
/// runs flipped about 2x between phases of the shared host, while the
/// single-threaded renders in the same runs did not.
sim::CampaignResults populate_warm_grid(const sim::CampaignSpec& spec,
                                        const std::string& cache_dir,
                                        const std::string& warm_dir) {
  sim::ExperimentRunner runner(spec.scenario, cache_dir, warm_dir);
  sim::CampaignEngine engine(runner, 1);
  return engine.run(spec);
}

const sim::Metric kFigures[] = {sim::Metric::kThroughputNorm,
                                sim::Metric::kAws,
                                sim::Metric::kFairSpeedup};

std::string render_figure(const sim::CampaignResults& results, sim::Metric m) {
  return sim::figure_table(sim::assemble_figure(results, m)).render_csv();
}

std::size_t mean_entry_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".snugc") {
      total += e.file_size();
      ++n;
    }
  }
  return n ? static_cast<std::size_t>(total / n) : 0;
}

/// Times EvalCache::store for every cell of `results` into a scratch
/// store (traced runs: the write cost a cold cell or a service miss
/// pays).
std::vector<double> time_stores(const sim::CampaignSpec& spec,
                                const sim::CampaignResults& results,
                                const std::string& dir) {
  sim::ExperimentRunner keys(spec.scenario, "", "");
  const sim::SystemConfig cfg = spec.scenario.system_config();
  sim::EvalCache cache(dir);
  std::vector<double> us;
  for (const auto& combo : spec.combos()) {
    for (const auto& scheme : spec.schemes) {
      const auto& ipc = results.at(combo.name).at(scheme.id()).ipc;
      const std::uint64_t fp =
          sim::run_fingerprint(cfg, spec.scenario.scale, combo, scheme);
      const auto t0 = pb::Clock::now();
      cache.store(keys.cache_key(combo, scheme), fp, ipc);
      us.push_back(pb::seconds_between(t0, pb::Clock::now()) * 1e6);
    }
  }
  return us;
}

// -------------------------------------------------------------- cold_grid

/// The two taker/giver-mix combos of cold_grid: Table 8's first C3
/// (2A+2C) and first C5 (2A+2D) combos.  Seed 0 keeps Table 8's core
/// order; any other seed permutes each combo's benchmarks over the
/// cores.  The per-core stream seed is the core index, so a permutation
/// gives every core a different instruction stream while the mix — and
/// so the cost, which differs about 2.3x between C3 and C5 — stays put.
std::vector<trace::WorkloadCombo> cold_grid_combos(std::uint64_t seed) {
  std::vector<trace::WorkloadCombo> out;
  for (const char* name : {"ammp+parser+bzip2+mcf", "ammp+parser+swim+mesa"}) {
    for (const auto& c : trace::all_combos()) {
      if (c.name == name) out.push_back(c);
    }
  }
  SNUG_ENSURE(out.size() == 2);
  if (seed == 0) return out;
  SeedRng rng{seed};
  for (auto& combo : out) {
    auto& b = combo.benchmarks;
    for (std::size_t i = b.size() - 1; i > 0; --i) {
      std::swap(b[i], b[rng.below(i + 1)]);
    }
    const int cls = combo.combo_class;
    combo = trace::custom_combo(b);
    combo.combo_class = cls;
  }
  return out;
}

sim::CampaignSpec cold_grid_spec(const Options& opt) {
  sim::CampaignSpec spec = sim::CampaignSpec::grid(
      cold_grid_combos(opt.seed), schemes::paper_scheme_grid());
  if (opt.tiny) {
    spec.scenario.scale.warmup_cycles = 200'000;
    spec.scenario.scale.measure_cycles = 200'000;
  }
  return spec;
}

/// Counts of one run window, read from CmpSystem's public counters.
struct WindowCounts {
  std::uint64_t l1_probes = 0;
  std::uint64_t l2_accesses = 0;
};

WindowCounts window_counts(sim::CmpSystem& sys,
                           const stats::CounterReport& report) {
  WindowCounts w;
  for (const auto& cc : report) {
    if (cc.component.rfind("l1i[", 0) == 0 || cc.component.rfind("l1d[", 0) == 0) {
      for (const auto& [n, v] : cc.counters) {
        if (n == "hits" || n == "misses") w.l1_probes += v;
      }
    }
  }
  const std::string scheme = sys.scheme().name();
  w.l2_accesses = counter(report, scheme, "l2_hits") +
                  counter(report, scheme, "l2_misses");
  return w;
}

/// Calibration sums over all traced cells (ns-per-op numerators and
/// denominators).
struct Calib {
  double synth_s = 0.0;
  std::uint64_t synth_n = 0;
  double probe_s = 0.0;
  std::uint64_t probe_n = 0;
  double scheme_s = 0.0;
  std::uint64_t scheme_n = 0;
};

/// Times each layer's public entry in isolation on the post-run machine
/// of one cell: SyntheticStream::fill_batch on every core's stream,
/// CmpSystem::probe_data on the batch's memory ops (filling the L1 on a
/// miss, as the core's miss path would), and L2Scheme::access on the
/// addresses that missed.  The machine is finished with when this runs.
Calib calibrate(sim::CmpSystem& sys, std::uint32_t cores, Cycle gap) {
  Calib c;
  std::vector<std::uint8_t> code(kCalibInstrs);
  std::vector<Addr> addr(kCalibInstrs);
  struct Miss {
    CoreId core;
    Addr addr;
    bool write;
  };
  std::vector<Miss> misses;
  for (CoreId core = 0; core < cores; ++core) {
    auto t0 = pb::Clock::now();
    const std::size_t n = sys.stream(core).fill_batch(code.data(), addr.data(),
                                                      kCalibInstrs);
    c.synth_s += pb::seconds_between(t0, pb::Clock::now());
    c.synth_n += n;

    cache::SetAssocCache& l1 = sys.l1d(core);
    std::uint64_t probes = 0;
    t0 = pb::Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if ((code[i] >> 1) != 1) continue;  // not a load/store
      const bool w = (code[i] & 1) != 0;
      ++probes;
      if (!sys.probe_data(core, addr[i], w)) {
        misses.push_back({core, addr[i], w});
        (void)l1.fill_local(l1.geometry().block_of(addr[i]), w, core);
      }
    }
    c.probe_s += pb::seconds_between(t0, pb::Clock::now());
    c.probe_n += probes;
  }
  schemes::L2Scheme& scheme = sys.scheme();
  Cycle now = sys.now();
  const auto t0 = pb::Clock::now();
  for (const Miss& m : misses) {
    now += gap;
    if (now >= scheme.next_drain_cycle()) scheme.drain(now);
    if (scheme.has_periodic_work() && now >= scheme.next_tick_cycle()) {
      scheme.tick(now);
    }
    (void)scheme.access(m.core, m.addr, m.write, now);
  }
  c.scheme_s = pb::seconds_between(t0, pb::Clock::now());
  c.scheme_n = misses.size();
  return c;
}

/// Modelled counts of one cell's measurement window.
struct CellModel {
  std::string combo;
  std::string scheme;
  std::string scheme_component;  ///< the scheme's counter-report name
  std::vector<double> ipc;
  stats::CounterReport report;
  std::uint64_t retired = 0;
  std::uint64_t retired_warm = 0;
  double taker_frac = -1.0;  ///< SNUG cells only
  std::vector<double> core_mpki;
  Calib calib;
};

std::string counter_digest_line(const CellModel& m) {
  std::string s = m.combo + "," + m.scheme;
  for (const auto& cc : m.report) {
    for (const auto& [n, v] : cc.counters) {
      s += "," + cc.component + "." + std::string(n) + "=" + std::to_string(v);
    }
  }
  return s + "\n";
}

/// Throughput (sum of IPCs) of each scheme relative to L2P, geometric
/// mean over the grid's combos — the fig9 ratio on this slice.
std::map<std::string, double> throughput_vs_l2p(
    const sim::CampaignResults& results) {
  std::map<std::string, double> logsum;
  std::map<std::string, int> n;
  for (const auto& [combo, per_scheme] : results) {
    const double base = per_scheme.at("L2P").throughput();
    for (const auto& [scheme, r] : per_scheme) {
      logsum[scheme] += std::log(r.throughput() / base);
      ++n[scheme];
    }
  }
  std::map<std::string, double> out;
  for (const auto& [scheme, s] : logsum) out[scheme] = std::exp(s / n[scheme]);
  return out;
}

/// What the untraced cold_grid campaign measured, for the traced run's
/// overhead, idle-time and load figures.
struct ColdTimings {
  double wall = 0.0;            ///< campaign wall time
  double span_sum = 0.0;        ///< sum of the untraced cell spans
  std::vector<double> load_us;  ///< the reload check's cached_ipc loads
};

/// The traced half of cold_grid: fills `layers`, the per-scheme part of
/// the accuracy readout, the counter digest and the spans.  A mirrored
/// cell whose IPCs differ from the timed campaign's, or a window whose
/// calibrated layer estimates exceed its measured time, lands in `bad`.
void trace_cold_grid(const Options& opt, const sim::CampaignSpec& spec,
                     const sim::CampaignResults& results,
                     const ColdTimings& timed, std::set<std::string>& bad,
                     pb::JsonObject& accuracy, LayerMetrics& layers,
                     Outcome& out) {
  // Traced mirror of ExperimentRunner::run, through public calls, on
  // every cell; then the isolated layer calibration on the finished
  // machine, outside the cell span.
  const auto combos = spec.combos();
  pb::Tracer tracer;
  const sim::SystemConfig cfg = spec.scenario.system_config();
  const sim::RunScale scale = spec.scenario.scale;
  sim::ExperimentRunner keys(spec.scenario, "", "");
  const fs::path store_dir = fs::path(opt.workdir) / "traced_store";
  const auto open_t0 = pb::Clock::now();
  sim::EvalCache store(store_dir.string());
  const double open_ms = pb::seconds_between(open_t0, pb::Clock::now()) * 1e3;
  std::vector<CellModel> models(spec.size());
  std::vector<double> store_us(spec.size());
  std::vector<std::array<std::uint64_t, 4>> span_ids(spec.size());
  std::vector<std::array<WindowCounts, 2>> windows(spec.size());
  sim::ParallelExecutor exec(kJobs);
  exec.run_indexed(spec.size(), [&](std::size_t i) {
    const auto& combo = combos[i / spec.schemes.size()];
    const auto& scheme = spec.schemes[i % spec.schemes.size()];
    const std::uint64_t tid = i + 1;
    CellModel& m = models[i];
    m.combo = combo.name;
    m.scheme = scheme.id();
    const double c0 = tracer.now();
    sim::CmpSystem sys(cfg, scheme, combo, scale);
    const double c1 = tracer.now();
    sys.run(scale.warmup_cycles);
    const double c2 = tracer.now();
    for (CoreId c = 0; c < cfg.num_cores; ++c) m.retired_warm += sys.core(c).retired();
    windows[i][0] = window_counts(sys, sys.counter_report());
    const double c3 = tracer.now();
    sys.begin_measurement();
    sys.run(scale.measure_cycles);
    const double c4 = tracer.now();
    m.ipc = sys.measured_ipc();
    m.report = sys.counter_report();
    m.scheme_component = sys.scheme().name();
    windows[i][1] = window_counts(sys, m.report);
    for (CoreId c = 0; c < cfg.num_cores; ++c) {
      const std::uint64_t r = sys.core(c).retired();
      m.retired += r;
      const std::string slice = sys.scheme().slice(c).name();
      if (sys.scheme().num_slices() == cfg.num_cores && r > 0) {
        m.core_mpki.push_back(
            1000.0 * static_cast<double>(counter(m.report, slice, "misses")) /
            static_cast<double>(r));
      }
    }
    if (const auto* snug = dynamic_cast<const schemes::SnugScheme*>(&sys.scheme())) {
      double takers = 0.0;
      double sets = 0.0;
      for (CoreId c = 0; c < cfg.num_cores; ++c) {
        takers += snug->gt(c).taker_count();
        sets += snug->gt(c).num_sets();
      }
      m.taker_frac = takers / sets;
    }
    const double c5 = tracer.now();
    const std::uint64_t fp = sim::run_fingerprint(cfg, scale, combo, scheme);
    store.store(keys.cache_key(combo, scheme), fp, m.ipc);
    const double c6 = tracer.now();
    store_us[i] = (c6 - c5) * 1e6;
    const std::uint64_t root = tracer.record("cell", 0, tid, c0, c6);
    tracer.record("sim.build", root, tid, c0, c1);
    const std::uint64_t warm = tracer.record("sim.warmup", root, tid, c1, c2);
    tracer.record("counts", root, tid, c2, c3);
    const std::uint64_t meas = tracer.record("sim.measure", root, tid, c3, c4);
    tracer.record("counts", root, tid, c4, c5);
    tracer.record("sim.store.store", root, tid, c5, c6);
    span_ids[i] = {root, warm, meas, tid};
    const Cycle gap = std::max<Cycle>(
        1, scale.measure_cycles /
               std::max<std::uint64_t>(1, windows[i][1].l2_accesses));
    m.calib = calibrate(sys, cfg.num_cores, gap);
  });

  // Layer split: each window's layers, laid end to end from the
  // window's start as estimated child spans; the window's self time
  // is then the core step's own time (cpu.step_self_s).  The estimates
  // are not scaled to fit: a window whose estimates exceed its measured
  // time fails the run (the calibration overestimates that layer), and
  // each window's ratio of estimates to measured time is reported.
  Calib total;
  for (const auto& m : models) {
    total.synth_s += m.calib.synth_s;
    total.synth_n += m.calib.synth_n;
    total.probe_s += m.calib.probe_s;
    total.probe_n += m.calib.probe_n;
    total.scheme_s += m.calib.scheme_s;
    total.scheme_n += m.calib.scheme_n;
  }
  const auto per = [](double s, std::uint64_t n) { return n ? s / n : 0.0; };
  const double synth_ns = per(total.synth_s, total.synth_n);
  const double probe_ns = per(total.probe_s, total.probe_n);
  const double scheme_ns = per(total.scheme_s, total.scheme_n);
  const auto spans_now = tracer.spans();
  std::map<std::uint64_t, const pb::Span*> by_id;
  for (const auto& s : spans_now) by_id[s.id] = &s;
  std::uint64_t instrs = 0;
  std::vector<double> est_ratio;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& m = models[i];
    const std::uint64_t retired_win[2] = {m.retired_warm, m.retired};
    const std::uint64_t window_span[2] = {span_ids[i][1], span_ids[i][2]};
    for (int w = 0; w < 2; ++w) {
      const pb::Span& parent = *by_id.at(window_span[w]);
      const double dur = parent.end - parent.start;
      const double parts[3] = {
          synth_ns * static_cast<double>(retired_win[w]),
          probe_ns * static_cast<double>(windows[i][w].l1_probes),
          scheme_ns * static_cast<double>(windows[i][w].l2_accesses)};
      const double ratio = (parts[0] + parts[1] + parts[2]) / dur;
      est_ratio.push_back(ratio);
      if (!(ratio <= 1.0)) {
        bad.insert(cell_key(m.combo, m.scheme) + (w ? "/measure" : "/warmup") +
                   ":layer-estimates-exceed-window");
      }
      const char* names[3] = {"trace.synth", "cache.l1", "schemes.access"};
      double at = parent.start;
      for (int k = 0; k < 3; ++k) {
        tracer.record(names[k], parent.id, span_ids[i][3], at, at + parts[k],
                      /*estimated=*/true);
        at += parts[k];
      }
    }
    instrs += m.retired_warm + m.retired;
  }
  out.spans = tracer.spans();
  const auto by_name = pb::self_time_by_name(out.spans);
  double traced_span_sum = 0.0;
  double build_s = 0.0, warm_s = 0.0, meas_s = 0.0;
  for (const auto& s : out.spans) {
    if (s.name == "cell") traced_span_sum += s.end - s.start;
    if (s.name == "sim.build") build_s += s.end - s.start;
    if (s.name == "sim.warmup") warm_s += s.end - s.start;
    if (s.name == "sim.measure") meas_s += s.end - s.start;
  }

  // Modelled counts, summed over the grid's measurement windows.
  std::uint64_t l1d_miss = 0, l1i_miss = 0, l2_miss = 0, spills = 0,
                remote = 0, wbb = 0, bus_req = 0, bus_spill = 0,
                bus_busy = 0, bus_wait = 0, dram_r = 0, dram_w = 0,
                dram_q = 0, retired = 0;
  double taker = 0.0;
  int taker_n = 0;
  pb::Digest counter_digest;
  std::map<std::string, std::map<std::string, double>> per_scheme;
  for (const auto& m : models) {
    for (const auto& cc : m.report) {
      for (const auto& [n, v] : cc.counters) {
        if (n != "misses") continue;
        if (cc.component.rfind("l1d[", 0) == 0) l1d_miss += v;
        if (cc.component.rfind("l1i[", 0) == 0) l1i_miss += v;
      }
    }
    const std::string& sn = m.scheme_component;
    const std::uint64_t m_l2 = counter(m.report, sn, "l2_misses");
    const std::uint64_t m_spills = counter(m.report, sn, "spills");
    const std::uint64_t m_remote = counter(m.report, sn, "remote_hits");
    l2_miss += m_l2;
    spills += m_spills;
    remote += m_remote;
    wbb += counter(m.report, sn, "wbb_stall_cycles");
    bus_req += counter(m.report, "bus", "requests");
    bus_spill += counter(m.report, "bus", "spills");
    bus_busy += counter(m.report, "bus", "busy_core_cycles");
    bus_wait += counter(m.report, "bus", "wait_core_cycles");
    dram_r += counter(m.report, "dram", "reads");
    dram_w += counter(m.report, "dram", "writes");
    dram_q += counter(m.report, "dram", "queue_cycles");
    retired += m.retired;
    if (m.taker_frac >= 0) {
      taker += m.taker_frac;
      ++taker_n;
    }
    counter_digest.add(counter_digest_line(m));
    auto& ps = per_scheme[m.scheme];
    ps["cells"] += 1;
    ps["l2_mpki_sum"] += 1000.0 * static_cast<double>(m_l2) / static_cast<double>(m.retired);
    double mx = 0.0;
    for (double v : m.core_mpki) mx = std::max(mx, v);
    ps["core_mpki_max"] = std::max(ps["core_mpki_max"], mx);
    ps["spills"] += static_cast<double>(m_spills);
    ps["remote_hits"] += static_cast<double>(m_remote);
    ps["bus_busy"] += static_cast<double>(counter(m.report, "bus", "busy_core_cycles"));
    ps["bus_wait"] += static_cast<double>(counter(m.report, "bus", "wait_core_cycles"));
    ps["bus_requests"] += static_cast<double>(counter(m.report, "bus", "requests"));
    ps["dram_writes"] += static_cast<double>(counter(m.report, "dram", "writes"));
    const auto it = results.find(m.combo);
    if (it == results.end() || it->second.at(m.scheme).ipc != m.ipc) {
      bad.insert(cell_key(m.combo, m.scheme));
    }
  }
  const double window_cycles =
      static_cast<double>(scale.measure_cycles) * static_cast<double>(models.size());
  pb::JsonObject schemes_json;
  for (const auto& [scheme, ps] : per_scheme) {
    schemes_json.raw(
        scheme,
        pb::JsonObject()
            .num("l2_mpki", ps.at("l2_mpki_sum") / ps.at("cells"))
            .num("core_l2_mpki_max", ps.at("core_mpki_max"))
            .num("spill_reuse", ps.at("spills") > 0 ? ps.at("remote_hits") / ps.at("spills") : 0.0)
            .num("bus_utilisation", ps.at("bus_busy") / (ps.at("cells") * static_cast<double>(scale.measure_cycles)))
            .num("bus_wait_per_request", ps.at("bus_requests") > 0 ? ps.at("bus_wait") / ps.at("bus_requests") : 0.0)
            .num("dram_writes", ps.at("dram_writes"))
            .render());
  }
  accuracy.raw("per_scheme", schemes_json.render());

  // Tracing overhead: traced vs untraced cell time over the same grid.
  const double overhead = traced_span_sum / timed.span_sum - 1.0;
  auto& L = layers.v;
  L["trace.synth_ns_per_instr"] = synth_ns * 1e9;
  L["cpu.step_self_s"] = by_name.count("sim.warmup") ? by_name.at("sim.warmup") + by_name.at("sim.measure") : 0.0;
  L["cpu.retired"] = static_cast<double>(instrs);
  L["cache.l1_probe_ns"] = probe_ns * 1e9;
  L["cache.l1d_misses"] = static_cast<double>(l1d_miss);
  L["cache.l1i_misses"] = static_cast<double>(l1i_miss);
  L["schemes.access_ns"] = scheme_ns * 1e9;
  L["schemes.l2_mpki"] = 1000.0 * static_cast<double>(l2_miss) / static_cast<double>(retired);
  L["schemes.spills"] = static_cast<double>(spills);
  L["schemes.remote_hits"] = static_cast<double>(remote);
  L["schemes.spill_reuse"] = spills ? static_cast<double>(remote) / static_cast<double>(spills) : 0.0;
  L["schemes.wbb_stall_cycles"] = static_cast<double>(wbb);
  L["core.taker_frac"] = taker_n ? taker / taker_n : 0.0;
  L["bus.requests"] = static_cast<double>(bus_req);
  L["bus.spills"] = static_cast<double>(bus_spill);
  L["bus.utilisation"] = static_cast<double>(bus_busy) / window_cycles;
  L["bus.wait_cycles"] = static_cast<double>(bus_wait);
  L["dram.reads"] = static_cast<double>(dram_r);
  L["dram.writes"] = static_cast<double>(dram_w);
  L["dram.queue_cycles"] = static_cast<double>(dram_q);
  L["sim.build_s"] = build_s;
  L["sim.warmup_s"] = warm_s;
  L["sim.measure_s"] = meas_s;
  L["sim.worker_idle_s"] = kJobs * timed.wall - timed.span_sum;
  L["sim.cell_span_s"] = traced_span_sum;
  L["sim.layer_est_ratio_max"] = *std::max_element(est_ratio.begin(), est_ratio.end());
  L["sim.trace_overhead"] = overhead;
  L["sim.store.open_ms"] = open_ms;
  L["sim.store.load_us_p50"] = pb::median(timed.load_us);
  L["sim.store.store_us_p50"] = pb::median(store_us);
  L["sim.store.entry_bytes"] = static_cast<double>(mean_entry_bytes(store_dir.string()));
  out.detail.str("counter_digest", counter_digest.hex());
  out.detail.raw("layer_self_s",
                 [&] {
                   pb::JsonObject o;
                   for (const auto& [n, s] : by_name) o.num(n, s);
                   return o.render();
                 }());
  out.detail.raw("layer_est_ratio", dist_json(pb::summarize(est_ratio)));
  std::string by_window = "[";  // cell-major, warm-up then measure
  for (std::size_t i = 0; i < est_ratio.size(); ++i) {
    by_window += (i ? ", " : "") + fmt17(est_ratio[i]);
  }
  out.detail.raw("layer_est_ratio_by_window", by_window + "]");
}

Outcome run_cold_grid(const Options& opt) {
  Outcome out;
  const sim::CampaignSpec spec = cold_grid_spec(opt);
  const auto combos = spec.combos();

  // Set-up: fresh empty cache and warm-bank dirs, runner, engine (its
  // worker pool).  Set-up 0 builds the measured runner and engine.  The
  // others repeat it on throwaway dirs, one every kColdSetupGap while the
  // measured campaign runs on a thread of its own, so their median
  // samples the shared host across the whole campaign: a set-up takes
  // about 0.15 ms, and repetitions in a row all land in one instant.
  std::vector<double> setup_s;
  int setup_rep = 0;
  const auto set_up = [&](std::unique_ptr<sim::ExperimentRunner>& r,
                          std::unique_ptr<sim::CampaignEngine>& e) {
    const fs::path dir =
        fs::path(opt.workdir) / ("cold" + std::to_string(setup_rep++));
    const auto t0 = pb::Clock::now();
    fs::create_directories(dir);
    r = std::make_unique<sim::ExperimentRunner>(
        spec.scenario, (dir / "cache").string(), (dir / "warm").string());
    e = std::make_unique<sim::CampaignEngine>(*r, kJobs);
    setup_s.push_back(pb::seconds_between(t0, pb::Clock::now()));
  };
  const auto spare_set_up = [&] {
    std::unique_ptr<sim::ExperimentRunner> r;
    std::unique_ptr<sim::CampaignEngine> e;  // destroyed first, untimed
    set_up(r, e);
  };
  std::unique_ptr<sim::ExperimentRunner> runner;
  std::unique_ptr<sim::CampaignEngine> engine;
  set_up(runner, engine);

  // One timed cold grid.  Cell spans: runner.on_progress fires as a cell
  // starts simulating, engine.on_progress as it finishes.
  std::vector<double> cells;
  std::map<std::string, std::vector<double>> combo_cells;
  double wall = 0.0;
  double span_sum = 0.0;
  const auto timed_grid = [&](sim::ExperimentRunner& r,
                              sim::CampaignEngine& e) {
    std::mutex mu;
    std::map<std::string, pb::Clock::time_point> started;
    r.on_progress = [&](const std::string& combo, const std::string& scheme,
                        bool) {
      const std::lock_guard<std::mutex> lock(mu);
      started[cell_key(combo, scheme)] = pb::Clock::now();
    };
    e.on_progress = [&](const sim::CampaignProgress& p) {
      const auto t = pb::Clock::now();
      const std::lock_guard<std::mutex> lock(mu);
      const double s = pb::seconds_between(started.at(cell_key(p.combo, p.scheme)), t);
      cells.push_back(s);
      combo_cells[p.combo].push_back(s);
      span_sum += s;
    };
    const auto t0 = pb::Clock::now();
    sim::CampaignResults res = e.run(spec);
    wall += pb::seconds_between(t0, pb::Clock::now());
    r.on_progress = nullptr;
    e.on_progress = nullptr;
    return res;
  };

  // The measured campaign: one cold grid, beside the spare set-ups.
  sim::CampaignResults results;
  {
    std::atomic<bool> done{false};
    std::exception_ptr error;
    std::thread grid([&] {
      try {
        results = timed_grid(*runner, *engine);
      } catch (...) {
        error = std::current_exception();
      }
      done = true;
    });
    while (!done) {
      spare_set_up();
      std::this_thread::sleep_for(kColdSetupGap);
    }
    grid.join();
    if (error) std::rethrow_exception(error);
  }
  while (setup_s.size() < kColdSetupMin) spare_set_up();

  // Further grids on fresh stores only while --seconds asks for more than
  // the grids so far took.
  std::size_t grids = 1;
  while (wall < opt.seconds) {
    const fs::path dir = fs::path(opt.workdir) / ("cold_rep" + std::to_string(grids++));
    sim::ExperimentRunner r(spec.scenario, (dir / "cache").string(),
                            (dir / "warm").string());
    sim::CampaignEngine e(r, kJobs);
    if (sim::render_cell_csv(timed_grid(r, e)) != sim::render_cell_csv(results)) {
      ++out.failed;
    }
  }
  const std::size_t n_cells = spec.size() * grids;

  // Checks.  (1) every cell was simulated and its stored entry reloads
  // bit-equal; (2) untraced: one sampled cell per scheme re-simulated on
  // a cache-less runner is bit-equal (the traced run re-simulates every
  // cell through CmpSystem instead, check (3) below).
  std::set<std::string> bad;
  std::vector<double> load_us;
  for (const auto& combo : combos) {
    for (const auto& scheme : spec.schemes) {
      const auto& r = results.at(combo.name).at(scheme.id());
      std::vector<double> reload;
      const auto l0 = pb::Clock::now();
      const bool loaded = runner->cached_ipc(combo, scheme, reload);
      load_us.push_back(pb::seconds_between(l0, pb::Clock::now()) * 1e6);
      if (r.cached || !loaded || reload != r.ipc) {
        bad.insert(cell_key(combo.name, scheme.id()));
      }
    }
  }
  if (!opt.trace) {
    // The sampled cells come from the C3 combo, the cheaper of the two,
    // which keeps a run's checks to about a third of its campaign.
    sim::ExperimentRunner ref(spec.scenario, "", "");
    std::mutex bad_mu;
    sim::ParallelExecutor exec(kJobs);
    exec.run_indexed(spec.schemes.size(), [&](std::size_t s) {
      const auto& combo = combos[0];
      const auto& scheme = spec.schemes[s];
      const auto again = ref.run(combo, scheme);
      if (again.ipc != results.at(combo.name).at(scheme.id()).ipc) {
        const std::lock_guard<std::mutex> lock(bad_mu);
        bad.insert(cell_key(combo.name, scheme.id()));
      }
    });
  }


  pb::Digest ipc_digest;
  ipc_digest.add(sim::render_cell_csv(results));
  const auto thr = throughput_vs_l2p(results);

  // Modelled-accuracy readout: reported, never gated (README.md).
  pb::JsonObject accuracy;
  accuracy.num("snug_vs_l2p", thr.at("SNUG"))
      .num("dsr_vs_l2p", thr.at("DSR"))
      .num("l2s_vs_l2p", thr.at("L2S"))
      .num("paper_snug_vs_l2p", 1.139)
      .num("paper_dsr_vs_l2p", 1.084)
      .boolean("gated", false);

  LayerMetrics layers;
  if (opt.trace) {
    trace_cold_grid(opt, spec, results, {wall, span_sum, load_us}, bad, accuracy,
                    layers, out);
  }

  out.attempted = n_cells;
  out.failed += bad.size();
  const pb::Dist cell_dist = pb::summarize(cells);
  // The grid's cells fall into one cluster per combo (C5 costs about
  // 2.3x C3), so the pooled median of 18 spans sits in the gap between
  // the clusters and rests on the slowest C3 and the fastest C5 cell.
  // op_ms_p50 is instead each combo's median, averaged over the combos.
  double combo_p50 = 0.0;
  for (const auto& [combo, spans] : combo_cells) combo_p50 += pb::median(spans);
  combo_p50 /= static_cast<double>(combo_cells.size());
  out.detail.str("workload", "cold_grid")
      .raw("combos", [&] {
        std::string s = "[";
        for (std::size_t i = 0; i < combos.size(); ++i) {
          s += (i ? ", " : "") + pb::json_string(combos[i].name);
        }
        return s + "]";
      }())
      .num("cells", static_cast<double>(n_cells))
      .num("jobs", kJobs)
      .num("campaign_wall_s", wall)
      .num("worker_idle_s", kJobs * wall - span_sum)
      .raw("cell_s", dist_json(cell_dist))
      .num("combo_p50_s", combo_p50)
      .raw("setup_s", dist_json(pb::summarize(setup_s)))
      .str("ipc_digest", ipc_digest.hex())
      .raw("accuracy", accuracy.render());
  if (!opt.trace) {
    out.metric("setup_s", pb::median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", static_cast<double>(n_cells) / wall, "1/s");
    out.metric("op_ms_p50", combo_p50 * 1e3, "ms");
    out.metric("op_ms_tail", cell_dist.tail * 1e3, "ms");
  } else {
    layers.emit(out);
  }
  return out;
}

// ------------------------------------------------------------ warm_render

Outcome run_service_mix(const Options& opt);

Outcome run_warm_render(const Options& opt) {
  Outcome out;
  const sim::CampaignSpec spec = warm_grid_spec(opt.seed);

  // Set-up: simulate the 189-cell grid at reduced scale into a fresh
  // cache and render the reference CSVs.  The first set-up is the one
  // rendered from; the others are spread over the measured window (see
  // SetupSchedule) and must reproduce its cells bit for bit.
  std::vector<double> setup_s;
  sim::CampaignResults ref;
  std::string cache_dir, warm_dir;
  std::uint64_t failed = 0;
  const auto set_up = [&](int rep) {
    const fs::path dir = fs::path(opt.workdir) / ("render" + std::to_string(rep));
    const auto t0 = pb::Clock::now();
    sim::CampaignResults res = populate_warm_grid(spec, (dir / "cache").string(),
                                                  (dir / "warm").string());
    setup_s.push_back(pb::seconds_between(t0, pb::Clock::now()));
    if (rep == 0) {
      cache_dir = (dir / "cache").string();
      warm_dir = (dir / "warm").string();
      ref = std::move(res);
    } else if (sim::render_cell_csv(res) != sim::render_cell_csv(ref)) {
      ++failed;
    }
  };
  set_up(0);
  std::string ref_csv[3];
  for (int f = 0; f < 3; ++f) ref_csv[f] = render_figure(ref, kFigures[f]);

  // One render = one figure bench process's work on a warm cache: open a
  // fresh runner, load all 189 cells through the campaign engine,
  // assemble the figure and render its CSV.  fig9, fig10, fig11 in turn.
  pb::Tracer tracer;
  std::vector<double> render_s, open_s, load_us, assemble_s;
  std::vector<pb::TimedOp> renders;
  const auto combos = spec.combos();
  pb::SetupSchedule schedule(opt.seconds, kWarmSetupReps);
  std::size_t k = 0;
  while (schedule.measuring()) {
    if (schedule.setup_due()) {
      schedule.paused([&] { set_up(schedule.next_rep()); });
      continue;
    }
    const int f = static_cast<int>(k % 3);
    std::string csv;
    bool all_cached = true;
    const auto t0 = pb::Clock::now();
    if (!opt.trace) {
      sim::ExperimentRunner runner(spec.scenario, cache_dir, warm_dir);
      sim::CampaignEngine engine(runner, 1);
      const sim::CampaignResults res = engine.run(spec);
      csv = render_figure(res, kFigures[f]);
      for (const auto& [c, per] : res) {
        for (const auto& [s, r] : per) all_cached = all_cached && r.cached;
      }
    } else {
      // The same work, mirrored through public calls so each layer gets
      // a span: store open, per-cell loads, figure assembly.
      const double r0 = tracer.now();
      const std::uint64_t tid = k + 1;
      sim::ExperimentRunner runner(spec.scenario, cache_dir, warm_dir);
      const double r1 = tracer.now();
      sim::CampaignResults res;
      for (const auto& combo : combos) {
        for (const auto& scheme : spec.schemes) {
          const auto l0 = pb::Clock::now();
          sim::RunResult r;
          r.cached = runner.cached_ipc(combo, scheme, r.ipc);
          load_us.push_back(pb::seconds_between(l0, pb::Clock::now()) * 1e6);
          all_cached = all_cached && r.cached;
          res[combo.name][scheme.id()] = std::move(r);
        }
      }
      const double r2 = tracer.now();
      csv = render_figure(res, kFigures[f]);
      const double r3 = tracer.now();
      const std::uint64_t root = tracer.record("render", 0, tid, r0, r3);
      tracer.record("sim.store.open", root, tid, r0, r1);
      tracer.record("sim.store.load", root, tid, r1, r2);
      tracer.record("sim.figures.assemble", root, tid, r2, r3);
      open_s.push_back(r1 - r0);
      assemble_s.push_back(r3 - r2);
    }
    const auto t1 = pb::Clock::now();
    render_s.push_back(pb::seconds_between(t0, t1));
    renders.push_back({schedule.at(t1), render_s.back()});
    if (csv != ref_csv[f] || !all_cached) ++failed;
    ++k;
  }
  const double wall = schedule.at(pb::Clock::now());
  while (schedule.reps_left() > 0) set_up(schedule.next_rep());

  pb::Digest digest;
  digest.add(sim::render_cell_csv(ref));
  for (const auto& csv : ref_csv) digest.add(csv);
  const pb::Dist d = pb::summarize(render_s);
  out.attempted = k;
  out.failed = failed;
  out.detail.str("workload", "warm_render")
      .num("cells", static_cast<double>(spec.size()))
      .raw("setup_s", dist_json(pb::summarize(setup_s)))
      .raw("setup_s_each", list_json(setup_s))
      .num("measure_cycles", static_cast<double>(spec.scenario.scale.measure_cycles))
      .raw("render_ms", dist_json(d, 1e3))
      .num("renders_per_s", static_cast<double>(k) / wall)
      .num("render_ms_block_mean_p50", pb::block_mean_median(renders, wall, kBlockSeconds) * 1e3)
      .raw("block_p50_ms", list_json(pb::block_medians(renders, wall, kBlockSeconds), 1e3))
      .str("ipc_digest", digest.hex());
  if (!opt.trace) {
    out.metric("setup_s", pb::median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", pb::slowest_block_rate(renders, wall, kBlockSeconds), "1/s");
    out.metric("op_ms_p50",
               pb::slowest_block_median(renders, wall, kBlockSeconds) * 1e3, "ms");
    out.metric("op_ms_tail",
               pb::block_median_tail(renders, wall, kTailBlockSeconds) * 1e3, "ms");
  } else {
    LayerMetrics layers;
    auto& L = layers.v;
    L["sim.store.open_ms"] = pb::median(open_s) * 1e3;
    L["sim.store.load_us_p50"] = pb::median(load_us);
    L["sim.store.store_us_p50"] = pb::median(
        time_stores(spec, ref, (fs::path(opt.workdir) / "store_probe").string()));
    L["sim.store.entry_bytes"] = static_cast<double>(mean_entry_bytes(cache_dir));
    L["sim.figures.assemble_ms"] = pb::median(assemble_s) * 1e3;

    // The service layers.  service_mix is not one of BENCHMARK.json's
    // workloads (README.md says why), so the traced warm_render run also
    // runs it, traced, for half the window on the same seed.  Its
    // sim.service.* metrics are reported here and its output checks count
    // with the renders'; its detail is nested, its spans are not written.
    Options svc_opt = opt;
    svc_opt.workload = "service_mix";
    svc_opt.seconds = opt.seconds / 2;
    svc_opt.workdir = (fs::path(opt.workdir) / "service_mix").string();
    const Outcome svc = run_service_mix(svc_opt);
    for (const auto& [name, value] : svc.metrics) {
      if (name.rfind("sim.service.", 0) == 0) L[name] = value.first;
    }
    out.attempted += svc.attempted;
    out.failed += svc.failed;
    out.detail.raw("service_mix", svc.detail.render());
    layers.emit(out);
    out.spans = tracer.spans();
  }
  return out;
}

// ------------------------------------------------------------ service_mix

/// The service under test, with its serving thread.  Destruction stops
/// and joins the serving loop before the server goes away.
struct ServiceRig {
  std::unique_ptr<sim::service::CampaignServer> server;
  std::jthread serving;

  ServiceRig() = default;
  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;
  ~ServiceRig() { stop(); }

  void start(sim::service::ServiceConfig cfg) {
    server = std::make_unique<sim::service::CampaignServer>(std::move(cfg));
    serving = std::jthread([s = server.get()] {
      s->serve(/*idle_exit_polls=*/0, /*poll_ms=*/1);
    });
  }
  void stop() {
    if (!server) return;
    server->request_stop();
    if (serving.joinable()) serving.join();
    server.reset();
  }
};

std::string scenario_text(const std::vector<std::string>& benches, Cycle warmup,
                          Cycle measure) {
  std::string w;
  for (const auto& b : benches) w += (w.empty() ? "" : "+") + b;
  return "workload=" + w + " warmup-cycles=" + std::to_string(warmup) +
         " measure-cycles=" + std::to_string(measure);
}

bool cells_equal(const std::vector<sim::service::AnswerCell>& cells,
                 const std::string& combo, const std::vector<double>& ipc) {
  return cells.size() == 1 && cells[0].combo == combo && cells[0].ipc == ipc;
}

Outcome run_service_mix(const Options& opt) {
  using namespace sim::service;
  Outcome out;
  const sim::CampaignSpec spec = warm_grid_spec(opt.seed);
  const Cycle warmup = spec.scenario.scale.warmup_cycles;
  const Cycle measure = spec.scenario.scale.measure_cycles;

  // Set-up: populate the same 189-cell warm grid as warm_render, then
  // open a CampaignServer over it (index build, journal open).  Set-up 0
  // serves the measured queries.  The others are spread over the measured
  // window as on warm_render, each on a server of its own that is shut
  // down again untimed, and must reproduce set-up 0's cells bit for bit.
  std::vector<double> setup_s;
  sim::CampaignResults ref;
  ServiceRig rig;
  std::string cache_dir;
  std::uint64_t failed = 0;
  const auto set_up = [&](int rep) {
    const fs::path dir = fs::path(opt.workdir) / ("service" + std::to_string(rep));
    ServiceRig spare;
    ServiceRig& target = rep == 0 ? rig : spare;
    const auto t0 = pb::Clock::now();
    sim::CampaignResults res = populate_warm_grid(spec, (dir / "cache").string(),
                                                  (dir / "warm").string());
    ServiceConfig cfg;
    cfg.root = (dir / "svc").string();
    cfg.cache_dir = (dir / "cache").string();
    cfg.workers = kJobs;
    target.start(std::move(cfg));
    setup_s.push_back(pb::seconds_between(t0, pb::Clock::now()));
    if (rep == 0) {
      cache_dir = (dir / "cache").string();
      ref = std::move(res);
    } else if (sim::render_cell_csv(res) != sim::render_cell_csv(ref)) {
      ++failed;
    }
  };
  set_up(0);
  CampaignServer& server = *rig.server;
  const std::string root = server.config().root;

  // Query universe: the Table 8 combos addressable as an explicit
  // benchmark list (the stress combos are named "4x<bench>" in Table 8,
  // so a benchmark-list query would name a different cell).
  std::vector<trace::WorkloadCombo> combos;
  for (const auto& c : spec.combos()) {
    if (trace::custom_combo(c.benchmarks).name == c.name) combos.push_back(c);
  }
  const auto& schemes = spec.schemes;

  enum Kind { kRingHit, kSweep, kFileHit, kMiss };
  SeedRng rng{opt.seed * 0x9e3779b97f4a7c15ULL + 11};
  RingClient ring(server);
  ServiceClient file(root);
  pb::Tracer tracer;
  std::vector<double> all_s, ring_us, sweep_us, file_us, miss_ms, submit_us,
      wait_us;
  struct MissCell {
    trace::WorkloadCombo combo;
    schemes::SchemeSpec scheme;
    Cycle measure;
    std::vector<double> ipc;
  };
  std::vector<MissCell> misses;
  std::vector<pb::TimedOp> kind_ops[4];  // per kind: {end, latency ms}
  pb::SetupSchedule schedule(opt.seconds, kWarmSetupReps);
  std::size_t k = 0;
  while (schedule.measuring() || misses.size() < kDigestMisses) {
    if (schedule.setup_due()) {
      schedule.paused([&] { set_up(schedule.next_rep()); });
      continue;
    }
    // The first four queries visit each kind once, so even a short run
    // exercises every path; after that the seeded mix.
    const std::size_t r = rng.below(100);
    const Kind kind = k < 4 ? static_cast<Kind>(k)
                      : r < kMixRingPct ? kRingHit
                      : r < kMixRingPct + kMixSweepPct ? kSweep
                      : r < kMixRingPct + kMixSweepPct + kMixFilePct ? kFileHit
                                                                     : kMiss;
    const auto& combo = combos[rng.below(combos.size())];
    const auto& scheme = schemes[rng.below(schemes.size())];
    const std::string id = "q" + std::to_string(k);
    const std::string text = scenario_text(combo.benchmarks, warmup, measure);
    const std::uint64_t tid = k + 1;
    bool ok = false;
    const double q0 = tracer.now();
    double q1 = q0;  // file wire: submit done, answer wait starts
    const auto t0 = pb::Clock::now();
    const char* span = "";
    if (kind == kRingHit || kind == kSweep || kind == kMiss) {
      ServiceBatchQuery q;
      q.id = id;
      MissCell miss;
      if (kind == kRingHit) {
        q.items.push_back({text, scheme.id()});
      } else if (kind == kSweep) {
        for (const auto& s : schemes) q.items.push_back({text, s.id()});
      } else {
        miss.combo = combo;
        miss.scheme = scheme;
        miss.measure = kMissMeasure + misses.size();
        q.items.push_back({scenario_text(combo.benchmarks, kMissWarmup, miss.measure),
                           scheme.id()});
      }
      ServiceBatchAnswer a;
      ok = ring.query(q, a) && a.parts.size() == q.items.size();
      for (std::size_t p = 0; ok && p < a.parts.size(); ++p) {
        ok = a.parts[p].status == AnswerStatus::kOk;
        if (!ok) break;
        if (kind == kMiss) {
          ok = a.parts[p].cells.size() == 1 && a.parts[p].cells[0].combo == combo.name;
          if (ok) miss.ipc = a.parts[p].cells[0].ipc;
        } else {
          const std::string sid = kind == kSweep ? schemes[p].id() : scheme.id();
          ok = cells_equal(a.parts[p].cells, combo.name,
                           ref.at(combo.name).at(sid).ipc);
        }
      }
      if (kind == kMiss) {
        misses.push_back(std::move(miss));
        const auto t1 = pb::Clock::now();
        miss_ms.push_back(pb::seconds_between(t0, t1) * 1e3);
        span = "service.miss";
      } else if (kind == kSweep) {
        sweep_us.push_back(pb::seconds_between(t0, pb::Clock::now()) * 1e6);
        span = "service.sweep";
      } else {
        ring_us.push_back(pb::seconds_between(t0, pb::Clock::now()) * 1e6);
        span = "service.ring_hit";
      }
    } else {
      ServiceQuery q;
      q.id = id;
      q.scenario_text = text;
      q.scheme_id = scheme.id();
      ServiceAnswer a;
      ok = file.submit(q);
      const auto t1 = pb::Clock::now();
      q1 = tracer.now();
      ok = ok && file.wait(id, a, /*timeout_ms=*/60'000, /*poll_ms=*/1) &&
           a.status == AnswerStatus::kOk &&
           cells_equal(a.cells, combo.name, ref.at(combo.name).at(scheme.id()).ipc);
      const auto t2 = pb::Clock::now();
      submit_us.push_back(pb::seconds_between(t0, t1) * 1e6);
      wait_us.push_back(pb::seconds_between(t1, t2) * 1e6);
      file_us.push_back(pb::seconds_between(t0, t2) * 1e6);
      span = "service.file_hit";
    }
    const auto t_end = pb::Clock::now();
    all_s.push_back(pb::seconds_between(t0, t_end));
    kind_ops[kind].push_back({schedule.at(t_end), all_s.back() * 1e3});
    if (opt.trace) {
      const double q2 = tracer.now();
      const std::uint64_t root = tracer.record(span, 0, tid, q0, q2);
      if (kind == kFileHit) {
        tracer.record("service.file.submit", root, tid, q0, q1);
        tracer.record("service.file.wait", root, tid, q1, q2);
      }
    }
    if (!ok) ++failed;
    ++k;
  }
  const double wall = schedule.at(pb::Clock::now());
  const CampaignServer::Stats st = server.stats();
  rig.stop();
  while (schedule.reps_left() > 0) set_up(schedule.next_rep());

  // Every miss answer must equal a direct, cache-less simulation.
  {
    std::mutex mu;
    sim::ParallelExecutor exec(kJobs);
    exec.run_indexed(misses.size(), [&](std::size_t i) {
      const MissCell& m = misses[i];
      sim::ScenarioSpec sc;
      std::string error;
      bool ok = sim::parse_scenario(
          scenario_text(m.combo.benchmarks, kMissWarmup, m.measure), sc, error);
      if (ok) {
        sim::ExperimentRunner direct(sc, "", "");
        ok = direct.run(sc.combos().at(0), m.scheme).ipc == m.ipc;
      }
      if (!ok) {
        const std::lock_guard<std::mutex> lock(mu);
        ++failed;
      }
    });
  }

  pb::Digest digest;
  digest.add(sim::render_cell_csv(ref));
  for (std::size_t i = 0; i < kDigestMisses; ++i) {
    const MissCell& m = misses[i];
    std::string line = m.combo.name + "," + m.scheme.id() + "," + std::to_string(m.measure);
    for (const double v : m.ipc) {
      line += ',';
      line += fmt17(v);
    }
    digest.add(line + "\n");
  }
  const auto loop_share = [&](const std::vector<pb::TimedOp>& ops) {
    double ms = 0.0;
    for (const pb::TimedOp& op : ops) ms += op.value;
    return ms / 1e3 / wall;
  };
  std::vector<pb::TimedOp> all_ops;
  for (const auto& ops : kind_ops) all_ops.insert(all_ops.end(), ops.begin(), ops.end());
  const pb::Dist d_all = pb::summarize(all_s);
  const pb::Dist d_ring = pb::summarize(ring_us);
  const pb::Dist d_file = pb::summarize(file_us);
  const pb::Dist d_miss = pb::summarize(miss_ms);
  const pb::Dist d_sweep = pb::summarize(sweep_us);
  out.attempted = k;
  out.failed = failed;
  out.detail.str("workload", "service_mix")
      .num("queries", static_cast<double>(k))
      .raw("setup_s", dist_json(pb::summarize(setup_s)))
      .raw("setup_s_each", list_json(setup_s))
      .num("workers", kJobs)
      .raw("query_ms", dist_json(d_all, 1e3))
      .raw("ring_hit_us", dist_json(d_ring))
      .raw("sweep_us", dist_json(d_sweep))
      .raw("file_hit_us", dist_json(d_file))
      .raw("miss_ms", dist_json(d_miss))
      .num("cells_from_cache", static_cast<double>(st.cells_from_cache))
      .num("cells_simulated", static_cast<double>(st.cells_simulated))
      .num("ring_wire_fallbacks", static_cast<double>(ring.wire_fallbacks()))
      .raw("block_qps", list_json(pb::block_rates(all_ops, wall, kBlockSeconds)))
      .raw("block_miss_p50_ms", list_json(pb::block_medians(kind_ops[kMiss], wall, kBlockSeconds)))
      .raw("block_p50_ms",
           pb::JsonObject()
               .num("ring_hit", pb::block_mean_median(kind_ops[kRingHit], wall, kBlockSeconds))
               .num("sweep", pb::block_mean_median(kind_ops[kSweep], wall, kBlockSeconds))
               .num("file_hit", pb::block_mean_median(kind_ops[kFileHit], wall, kBlockSeconds))
               .num("miss", pb::block_mean_median(kind_ops[kMiss], wall, kBlockSeconds))
               .render())
      .raw("loop_share", pb::JsonObject()
                             .num("ring_hit", loop_share(kind_ops[kRingHit]))
                             .num("sweep", loop_share(kind_ops[kSweep]))
                             .num("file_hit", loop_share(kind_ops[kFileHit]))
                             .num("miss", loop_share(kind_ops[kMiss]))
                             .render())
      .str("ipc_digest", digest.hex());
  if (!opt.trace) {
    out.metric("setup_s", pb::median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", static_cast<double>(k) / wall, "1/s");
    out.metric("op_ms_p50",
               pb::block_mean_median(kind_ops[kMiss], wall, kBlockSeconds), "ms");
    out.metric("op_ms_tail",
               pb::block_median_tail(kind_ops[kMiss], wall, kTailBlockSeconds), "ms");
  } else {
    LayerMetrics layers;
    auto& L = layers.v;
    const auto i0 = pb::Clock::now();
    { AnswerIndex index(cache_dir); }
    L["sim.service.index_build_ms"] = pb::seconds_between(i0, pb::Clock::now()) * 1e3;
    L["sim.service.batch_query_us_p50"] = d_sweep.p50;
    L["sim.service.file_submit_us_p50"] = pb::median(submit_us);
    L["sim.service.answer_wait_us_p50"] = pb::median(wait_us);
    L["sim.service.ring_hit_us_p50"] = d_ring.p50;
    L["sim.service.ring_hit_us_p99"] = pb::summarize(ring_us).tail;
    L["sim.service.file_hit_us_p50"] = d_file.p50;
    L["sim.service.miss_ms_p50"] = d_miss.p50;
    L["sim.service.cells_from_cache"] = static_cast<double>(st.cells_from_cache);
    L["sim.service.cells_simulated"] = static_cast<double>(st.cells_simulated);
    L["sim.service.ring_inline_answers"] = static_cast<double>(st.ring_inline_answers);
    L["sim.service.submit_scans_skipped"] = static_cast<double>(st.submit_scans_skipped);
    L["sim.service.queries_shed"] = static_cast<double>(st.queries_shed);
    L["sim.store.store_us_p50"] = pb::median(
        time_stores(spec, ref, (fs::path(opt.workdir) / "store_probe").string()));
    L["sim.store.entry_bytes"] = static_cast<double>(mean_entry_bytes(cache_dir));
    layers.emit(out);
    out.spans = tracer.spans();
  }
  return out;
}

// ------------------------------------------------------------------ output

void print_result(const Options& opt, const Outcome& o) {
  std::printf("%s\n", pb::JsonObject().raw("host", host_json(opt.commit)).render().c_str());
  std::printf("%s\n", pb::JsonObject().raw("detail", o.detail.render()).render().c_str());
  pb::JsonObject metrics;
  for (const auto& [name, vu] : o.metrics) {
    metrics.raw(name,
                pb::JsonObject().num("value", vu.first).str("unit", vu.second).render());
  }
  std::printf("%s\n", pb::JsonObject()
                          .boolean("correct", o.correct())
                          .num("attempted", static_cast<double>(o.attempted))
                          .num("failed", static_cast<double>(o.failed))
                          .raw("metrics", metrics.render())
                          .render()
                          .c_str());
  std::fflush(stdout);
}

void write_spans(const std::string& path, const std::vector<pb::Span>& spans) {
  std::ofstream f(path);
  f << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << pb::JsonObject()
             .num("id", static_cast<double>(s.id))
             .num("parent", static_cast<double>(s.parent))
             .num("trace", static_cast<double>(s.trace))
             .str("name", s.name)
             .num("start_s", s.start)
             .num("end_s", s.end)
             .boolean("estimated", s.estimated)
             .render()
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "cold_grid") return run_cold_grid(opt);
  if (opt.workload == "warm_render") return run_warm_render(opt);
  return run_service_mix(opt);
}

// --------------------------------------------------------------- selftest

int selftest(const Options& base) {
  int failures = 0;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
      ++failures;
    }
  };
  // Percentile helper: sample count, median, and the highest percentile
  // (capped at p99) with at least ten samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  pb::Dist d = pb::summarize(v);
  expect(d.n == 1000 && d.p50 == 500.5, "p50 of 1..1000");
  expect(d.tail_pct == 99.0 && std::fabs(d.tail - 990.01) < 1e-9, "p99 of 1..1000");
  v.resize(500);
  d = pb::summarize(v);
  expect(d.n == 500 && d.tail_pct == 98.0, "500 samples -> p98");
  v.resize(200);
  expect(pb::summarize(v).tail_pct == 95.0, "200 samples -> p95");
  v.resize(40);
  expect(pb::summarize(v).tail_pct == 75.0, "40 samples -> p75");
  v.resize(18);
  d = pb::summarize(v);
  expect(d.n == 18 && d.tail_pct == 100.0 && d.tail == 18.0 && d.p50 == 9.5,
         "18 samples -> slowest sample");
  expect(pb::summarize({}).n == 0, "empty sample");

  // Block-averaged median: a slow phase covering one 2-s block of five
  // moves it by a fifth of the phase's excess, not to the slow level.
  std::vector<pb::TimedOp> ops;
  for (int i = 0; i < 100; ++i) {
    const double at = i * 0.1 + 0.05;  // 10 s window, 20 ops per block
    ops.push_back({at, at < 2.0 ? 12.0 : 1.0 + (i % 3)});
  }
  expect(std::fabs(pb::block_mean_median(ops, 10.0, 2.0) - 4.0) < 1e-12,
         "block-averaged median: (12 + 4 x 2) / 5");
  expect(pb::block_mean_median({}, 10.0, 2.0) == 0.0, "no ops, no median");
  // Slowest block: the same slow phase sets the median outright.
  expect(pb::slowest_block_median(ops, 10.0, 2.0) == 12.0,
         "slowest block median is the slow phase's");
  // Slowest block rate: 5 ops in the first 2-s block, 20 in the next
  // three, none in the last (skipped, so a stall cannot read 0).
  std::vector<pb::TimedOp> rate_ops;
  for (int i = 0; i < 5; ++i) rate_ops.push_back({0.4 * i + 0.1, 1.0});
  for (int i = 0; i < 60; ++i) rate_ops.push_back({2.0 + 0.1 * i + 0.05, 1.0});
  const std::vector<double> rates = pb::block_rates(rate_ops, 10.0, 2.0);
  expect(rates.size() == 4 && rates[0] == 2.5 && rates[1] == 10.0,
         "block rates: ops per second of each non-empty block");
  expect(pb::slowest_block_rate(rate_ops, 10.0, 2.0) == 2.5,
         "slowest block rate skips the empty block");
  expect(pb::slowest_block_rate({}, 10.0, 2.0) == 0.0, "no ops, no rate");
  // Block-median tail: a stall burst in one block of three does not move
  // it; each block's tail follows summarize()'s rule.
  std::vector<pb::TimedOp> tail_ops;
  for (int i = 0; i < 3000; ++i) {
    const double at = i * 0.005 + 0.0025;  // 15 s window, 1000 ops per block
    tail_ops.push_back({at, at < 5.0 && i % 50 == 0 ? 100.0 : 1.0 + (i % 100) * 0.01});
  }
  expect(std::fabs(pb::block_median_tail(tail_ops, 15.0, 5.0) - 1.9801) < 1e-9,
         "block-median tail ignores one stalled block");

  // Span self-time arithmetic: overlapping children count once, parts of
  // a child outside its parent not at all.
  std::vector<pb::Span> spans = {
      {1, 0, 1, "root", 0.0, 10.0, false}, {2, 1, 1, "a", 1.0, 3.0, false},
      {3, 1, 1, "b", 2.0, 5.0, false},     {4, 1, 1, "c", 8.0, 12.0, false},
      {5, 2, 1, "a.x", 1.5, 2.0, false}};
  const auto self = pb::self_times(spans);
  expect(std::fabs(self.at(1) - 4.0) < 1e-12, "root self = 10 - |[1,5]u[8,10]|");
  expect(std::fabs(self.at(2) - 1.5) < 1e-12, "a self = 2 - 0.5");
  expect(std::fabs(self.at(4) - 4.0) < 1e-12, "leaf self = duration");
  double sum = 0.0;
  for (const auto& [id, s] : self) sum += s;
  expect(std::fabs(sum - (4.0 + 1.5 + 3.0 + 4.0 + 0.5)) < 1e-12, "self sum");

  // Tiny-scale smoke of every workload, untraced and traced: the output
  // checks must run and pass, and every metric must be reported.
  for (const char* w : {"cold_grid", "warm_render", "service_mix"}) {
    for (const bool traced : {false, true}) {
      Options opt = base;
      opt.workload = w;
      opt.seed = 3;
      opt.seconds = 0.3;
      opt.trace = traced;
      opt.tiny = true;
      opt.workdir = base.workdir + "/selftest_" + w + (traced ? "_t" : "");
      fs::create_directories(opt.workdir);
      const Outcome o = run_workload(opt);
      const std::string tag = std::string(w) + (traced ? " traced" : "");
      expect(o.correct() && o.attempted > 0, tag + ": output checks pass");
      std::vector<std::string> want;
      if (traced) {
        for (const auto& [name, unit] : LayerMetrics::table()) want.push_back(name);
      } else {
        want.assign(std::begin(kE2eNames), std::end(kE2eNames));
      }
      std::vector<std::string> got;
      for (const auto& [name, vu] : o.metrics) got.push_back(name);
      expect(got == want, tag + ": every metric reported");
      if (traced && opt.workload == "cold_grid") {
        double ratio = 0.0;
        for (const auto& [n, vu] : o.metrics) {
          if (n == "sim.layer_est_ratio_max") ratio = vu.first;
        }
        expect(ratio > 0.0 && ratio <= 1.0,
               tag + ": layer estimates fit inside every run window");
      }
      fs::remove_all(opt.workdir);
    }
  }
  std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

bool parse_args(int argc, char** argv, Options& opt, bool& run_selftest) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--tiny") opt.tiny = true;
    else if (key == "--workdir") opt.workdir = val;
    else if (key == "--spans-out") opt.spans_out = val;
    else if (key == "--commit") opt.commit = val;
    else if (key == "--selftest") run_selftest = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  if (opt.workdir.empty()) {
    std::fprintf(stderr, "perfbench: --workdir is required\n");
    return false;
  }
  if (!run_selftest && opt.workload != "cold_grid" &&
      opt.workload != "warm_render" && opt.workload != "service_mix") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool run_selftest = false;
  if (!parse_args(argc, argv, opt, run_selftest)) return 2;
  fs::create_directories(opt.workdir);
  if (run_selftest) return selftest(opt);
  const Outcome o = run_workload(opt);
  if (opt.trace && !opt.spans_out.empty()) write_spans(opt.spans_out, o.spans);
  print_result(opt, o);
  return 0;
}
