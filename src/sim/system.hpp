// CmpSystem — the assembled N-core machine: cores, private L1I/L1D, an
// L2 organisation (scheme), the snoop bus and DRAM, driven by synthetic
// instruction streams.  Implements cpu::MemoryPort: every L1 miss is
// routed through the scheme, which updates all state synchronously and
// returns the completion cycle.
#pragma once

#include <memory>
#include <vector>

#include "cpu/core.hpp"
#include "schemes/factory.hpp"
#include "sim/config.hpp"
#include "sim/scenario.hpp"
#include "trace/synth_stream.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {

class CmpSystem final : public cpu::MemoryPort {
 public:
  CmpSystem(const SystemConfig& cfg, const schemes::SchemeSpec& spec,
            const trace::WorkloadCombo& combo, const RunScale& scale);

  /// The machine a scenario describes, running `combo` under `spec`.
  CmpSystem(const ScenarioSpec& scenario, const schemes::SchemeSpec& spec,
            const trace::WorkloadCombo& combo);

  /// Advances the machine by `cycles` core cycles.  Each core free-runs
  /// through its core-local work (cpu::Core::step) and parks at L1
  /// misses, so shared-state events execute in exact global
  /// (cycle, core) order.  Resumable: run(a + b) == run(a); run(b).
  void run(Cycle cycles);

  /// Functional fast-forward warm-up (warmup-mode=functional): drives
  /// the same instruction streams through the same L1/L2/scheme *state*
  /// machinery as run() — fills, spills, retrieves, monitor and shadow
  /// events, epoch ticks at their exact boundaries — but skips the
  /// timing machinery wholesale (no bus/DRAM booking, no write-back
  /// buffering, no ROB/LSQ occupancy; see L2Scheme::set_functional_
  /// warmup).  A lightweight per-core cursor replays the core's fetch/
  /// dispatch cadence against an estimated clock so reference density
  /// per epoch stays realistic; the cores themselves are never stepped
  /// and remain in their just-built state.  Must be called on a freshly
  /// built machine, before any run(); afterwards the machine state is
  /// the closed set save_warm_state() serializes, and run() continues
  /// in full timing from `now()`.
  void warm_functional(Cycle cycles);

  /// Serializes the post-functional-warm-up machine (now_, L1 arenas,
  /// stream cursors, scheme warm state) into a self-contained blob.
  /// load_warm_state on a freshly built same-config machine restores it
  /// bit-exactly: restore + run() is identical to warm_functional +
  /// run() in-process (pinned by tests/sim/warm_state_test.cpp).
  [[nodiscard]] std::vector<std::byte> save_warm_state() const;
  void load_warm_state(const std::vector<std::byte>& blob);

  /// Clears all statistics (contents survive) and marks the start of a
  /// measurement window.
  void begin_measurement();

  /// Per-core IPC over the current measurement window.
  [[nodiscard]] std::vector<double> measured_ipc() const;

  /// Name-based snapshot of every component's counters (bus, DRAM, L1s,
  /// scheme + slices) — the once-per-report path of the SoA stats
  /// pipeline (stats/counters.hpp).
  [[nodiscard]] stats::CounterReport counter_report() const;

  // cpu::MemoryPort: the probe touches only the calling core's L1 —
  // rank updates, dirty marks, hit/miss counters — so a core may issue
  // it while running ahead of the global clock, and park before the
  // miss half, which reaches the scheme/bus/DRAM and must happen in
  // global (cycle, core) order.  All defined inline: these calls are the
  // boundary between the core model and the memory hierarchy — every
  // simulated load, store and ifetch crosses it, and the L1-hit fast
  // path below must fold into the caller rather than pay a cross-TU
  // call.
  bool probe_data(CoreId core, Addr addr, bool is_write) override {
    return l1d_[core].access_local(addr, is_write).hit;
  }

  Cycle miss_data(CoreId core, Addr addr, bool is_write,
                  Cycle now) override {
    cache::SetAssocCache& l1 = l1d_[core];
    const Cycle completion = scheme_->access(core, addr, is_write, now);
    const Addr block = l1.geometry().block_of(addr);
    const cache::Eviction ev = l1.fill_local(block, is_write, core);
    if (ev.happened() && ev.line.dirty) {
      const Addr victim = l1.geometry().addr_of(ev.line.tag, ev.set);
      scheme_->l1_writeback(core, victim, now);
    }
    return completion > now ? completion : now + 1;
  }

  bool probe_inst(CoreId core, Addr addr) override {
    return l1i_[core].access_local(addr, false).hit;
  }

  Cycle miss_inst(CoreId core, Addr addr, Cycle now) override {
    cache::SetAssocCache& l1 = l1i_[core];
    const Cycle completion = scheme_->access(core, addr, false, now);
    const Addr block = l1.geometry().block_of(addr);
    l1.fill_local(block, false, core);  // I-lines are never dirty
    return completion > now ? completion : now + 1;
  }

  /// A whole data access (probe, then the miss half on a miss) —
  /// the per-reference driver for warm_functional and the hot-path
  /// bench.  Returns the completion cycle.
  Cycle data_access(CoreId core, Addr addr, bool is_write, Cycle now) {
    if (probe_data(core, addr, is_write)) return now + 1;
    return miss_data(core, addr, is_write, now);
  }

  /// A whole instruction fetch of the block containing `addr`.
  Cycle inst_fetch(CoreId core, Addr addr, Cycle now) {
    if (probe_inst(core, addr)) return now + 1;
    return miss_inst(core, addr, now);
  }

  // Introspection for tests and benches.
  [[nodiscard]] schemes::L2Scheme& scheme() { return *scheme_; }
  [[nodiscard]] const schemes::L2Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] bus::SnoopBus& snoop_bus() { return *bus_; }
  [[nodiscard]] dram::DramModel& dram() { return *dram_; }
  [[nodiscard]] cpu::Core<CmpSystem>& core(CoreId c);
  [[nodiscard]] cache::SetAssocCache& l1d(CoreId c);
  [[nodiscard]] trace::SyntheticStream& stream(CoreId c);
  [[nodiscard]] Cycle now() const noexcept { return now_; }

 private:
  void build(const schemes::SchemeSpec& spec,
             const trace::WorkloadCombo& combo, const RunScale& scale);

  SystemConfig cfg_;
  std::unique_ptr<bus::SnoopBus> bus_;
  std::unique_ptr<dram::DramModel> dram_;
  std::unique_ptr<schemes::L2Scheme> scheme_;
  // Value storage: the L1 probe is the innermost loop of the whole
  // simulator, and one pointer chase per access is measurable there.
  std::vector<cache::SetAssocCache> l1i_;
  std::vector<cache::SetAssocCache> l1d_;
  std::vector<std::unique_ptr<trace::SyntheticStream>> streams_;
  // Cores are sealed against this (final) system: the per-instruction
  // probe and miss calls devirtualise and inline.
  std::vector<std::unique_ptr<cpu::Core<CmpSystem>>> cores_;
  // Per-core next-event cycle: run() skips a core while now_ is below its
  // wake cycle instead of re-entering a no-op step() every cycle.
  std::vector<Cycle> core_wake_;
  Cycle now_ = 0;
  Cycle window_start_ = 0;
};

}  // namespace snug::sim
