// Shared crash-recovery helpers for the on-disk stores.
//
// Every RecordStore (sim/record_store.hpp) publishes entries by writing
// a uniquely named `<key>.tmp.<pid>.<seq>` file and renaming it into
// place.  A writer killed between the write and the rename leaves the
// temp behind forever, and an entry the record decoder calls corrupt
// would sit in the directory shadowing every future store.  These
// helpers implement the recovery actions the stores (and the campaign
// journal) run:
//
//   * reap_orphaned_temps — on open, delete temp files whose writer
//     process is dead (kill(pid, 0) probe).  Temps of live writers are
//     left alone: they are about to be renamed or cleaned by their
//     owner.
//   * quarantine_entry — rename a corrupt entry into
//     `<dir>/quarantine/<name>.<pid>.<seq>` (never delete: the bytes
//     are evidence).  The caller then recomputes and rewrites.
//   * bound_quarantine — cap how much evidence accumulates: beyond
//     kQuarantineCap entries the oldest surplus is removed (with an
//     informational report line), so a store that heals corruption for
//     months cannot fill the disk with it.
//   * reap_stale_journals — `<path>.stale.<pid>` journals moved aside
//     by CampaignJournal are removed once their writer is dead, the
//     same liveness probe as the temp reap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/fault.hpp"

namespace snug::sim {

/// Deletes orphaned `*.tmp.<pid>.<seq>` files in `dir` whose owning
/// process no longer exists (or whose name is too mangled to tell).
/// Returns the number reaped.  Valid entries and live writers' temps
/// are untouched.
std::uint64_t reap_orphaned_temps(const fault::Env& env,
                                  const std::string& dir);

/// Moves `dir`/`name` aside into `dir`/quarantine/ under a unique name
/// so it stops shadowing fresh stores but stays inspectable.  Returns
/// false when the rename (or quarantine-dir creation) fails — the
/// caller degrades to ignoring the entry in place.
bool quarantine_entry(const fault::Env& env, const std::string& dir,
                      const std::string& name, std::uint64_t uniq);

/// Default bound on `<dir>/quarantine/` entries (see bound_quarantine).
inline constexpr std::size_t kQuarantineCap = 256;

/// Bounds `<dir>/quarantine/` to at most `max_keep` entries by removing
/// the lexicographically-first surplus (the Env has no mtime, so the
/// sorted scan order is the deterministic stand-in for age; quarantine
/// names embed pid.seq, so for one long-lived writer that order IS
/// arrival order).  Prints one informational line naming the directory
/// and the count removed; returns that count.  A no-op (0) when the
/// directory is missing or within bounds.
std::uint64_t bound_quarantine(const fault::Env& env, const std::string& dir,
                               std::size_t max_keep = kQuarantineCap);

/// Removes `<journal>.stale.<pid>` siblings — journals a prior
/// CampaignJournal open moved aside as belonging to another campaign —
/// once their writer process is dead (same kill(pid, 0) probe as the
/// temp reap; unparseable pids count as dead).  Returns the number
/// removed.  Live writers' stale files are left for their owner.
std::uint64_t reap_stale_journals(const fault::Env& env,
                                  const std::string& journal_path);

}  // namespace snug::sim
