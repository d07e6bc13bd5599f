// Parallel experiment campaign engine (DESIGN.md "Campaign engine &
// parallel execution").
//
// The paper's whole evaluation (§6, Figures 6-9, Tables 3-4) is a grid of
// independent simulations: machine × job mix × allocator (× base seed ×
// scheduler-option variant). CampaignSpec declares that grid, CampaignRunner
// executes every cell as one independent run_continuous call through
// run_indexed (util/parallel.hpp), and CampaignResult holds the per-cell
// SimResult + RunSummary in cell order for table shaping.
//
// Determinism is the spine of the design:
//   - every cell's RNG seed is *derived by hashing* (base seed, machine,
//     mix, allocator) — never from iteration order, completion order or
//     thread ids (derive_cell_seed / derive_mix_seed below);
//   - the mix-decoration seed deliberately excludes the allocator, so the
//     allocator columns of one comparison group run the exact same
//     decorated log (improvement-% columns compare like with like);
//   - ownership/sharing: the immutable Tree (and the CostModels the
//     simulator builds over it) are shared across workers by const
//     reference; each cell copies the base log for decoration and owns a
//     private CommCache + CostWorkspace inside its run_continuous call;
//   - results are reduced in cell order, so rendered tables/CSV are
//     bit-identical at any thread count and in any completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocator_factory.hpp"
#include "exp/machines.hpp"
#include "metrics/summary.hpp"
#include "sched/simulator.hpp"
#include "workload/mixes.hpp"

namespace commsched::exp {

namespace detail {
/// SplitMix64 finalizer: the stable 64-bit mixer behind every derived seed,
/// the spec fingerprint and the cell→shard assignment. Platform-independent
/// by construction (pure integer arithmetic).
std::uint64_t mix64(std::uint64_t x);
/// Absorb a string into a running hash (FNV-1a step per byte, then a
/// re-mix — the mix between labels keeps boundaries unambiguous).
std::uint64_t absorb(std::uint64_t h, std::string_view s);
}  // namespace detail

/// One named SchedOptions variant (ablation axis). The allocator field of
/// `options` is overwritten per cell by the spec's allocator axis.
struct OptionsVariant {
  std::string name = "base";
  SchedOptions options;
};

/// Coordinates of one cell in the campaign's cross product, as indices into
/// the spec's axes.
struct CellCoord {
  std::size_t machine = 0;
  std::size_t mix = 0;
  std::size_t allocator = 0;
  std::size_t seed = 0;
  std::size_t variant = 0;

  bool operator==(const CellCoord&) const = default;
};

/// The declarative campaign: every combination of the five axes (that the
/// optional filter admits) becomes one independent simulation cell.
struct CampaignSpec {
  std::string name = "campaign";  ///< used in progress lines

  std::vector<MachineCase> machines;  ///< built once, shared by const ref
  std::vector<MixSpec> mixes;
  std::vector<AllocatorKind> allocators{
      kAllAllocatorKinds,
      kAllAllocatorKinds + std::size(kAllAllocatorKinds)};
  /// Base seeds; empty uses {exp::base_seed()} (the COMMSCHED_SEED knob).
  std::vector<std::uint64_t> base_seeds;
  std::vector<OptionsVariant> variants{{}};

  /// Worker threads; <= 0 uses default_thread_count() (COMMSCHED_THREADS
  /// env, then hardware concurrency).
  int threads = 0;

  /// Suppress progress reporting (also settable via COMMSCHED_QUIET).
  bool quiet = false;

  /// Optional cell filter: return false to skip a combination (e.g. run an
  /// extension mix on one machine only). Must be a pure function of the
  /// coordinates for the cell list to stay deterministic.
  std::function<bool(const CampaignSpec&, const CellCoord&)> filter;

  // --- Persistence & process sharding (DESIGN.md "Campaign persistence,
  // sharding & resume"). ---

  /// When non-empty, every completed cell is appended to this JSONL stream
  /// as it finishes (exp/sink.hpp): an fsync'd header line carrying the
  /// spec fingerprint, then one fsync'd line per cell. Empty falls back to
  /// the COMMSCHED_STREAM_DIR env var (<dir>/<name>[.s<i>of<N>].jsonl);
  /// unset means no streaming.
  std::string stream_path;

  /// With streaming on and an existing stream whose header matches this
  /// spec's fingerprint and shard, already-streamed cells are loaded and
  /// skipped (their CellResult carries the summary but an empty SimResult,
  /// with `resumed` set) — a SIGKILL'd campaign continues where it left
  /// off. A fingerprint/shard mismatch throws InvariantError. false
  /// truncates any existing stream and starts fresh.
  bool resume = true;

  /// Process sharding: this process executes only the cells whose
  /// deterministic shard (hash of the cell's axis labels, mod shard_count)
  /// equals shard_index. shard_count == 0 resolves COMMSCHED_SHARD=i/N
  /// (default 0/1). The per-shard streams merge into the same reduced
  /// result a single process would produce (exp::merge_streams).
  int shard_index = 0;
  int shard_count = 0;

  /// Testing hook: called (under the sink lock) after each cell's line has
  /// been appended and fsync'd, with the number streamed so far by this
  /// process. The kill/resume test SIGKILLs itself from here.
  std::function<void(std::size_t)> on_cell_streamed;

  /// All admitted cells, in deterministic (machine, mix, allocator, seed,
  /// variant) row-major order — the reduction order of the result.
  std::vector<CellCoord> cells() const;
};

/// One executed cell: labels + seeds for table shaping, the full SimResult
/// (per-job series, cache stats) and its RunSummary.
struct CellResult {
  CellCoord coord;
  std::string machine;
  std::string mix;
  std::string allocator;
  std::string variant;
  std::uint64_t base_seed = 0;
  std::uint64_t mix_seed = 0;   ///< hash(base, machine, mix)
  std::uint64_t cell_seed = 0;  ///< hash(base, machine, mix, allocator)
  SimResult sim;
  RunSummary summary;
  /// True when this cell was loaded from a stream instead of executed: the
  /// summary/seeds/labels are exact, but `sim` is empty (per-job series are
  /// not persisted).
  bool resumed = false;
};

/// Campaign output, cells in CampaignSpec::cells() order.
struct CampaignResult {
  std::vector<CellResult> cells;

  /// The cell at the given axis indices; throws InvariantError when the
  /// combination was filtered out or out of range.
  const CellResult& at(std::size_t machine, std::size_t mix,
                       std::size_t allocator, std::size_t seed = 0,
                       std::size_t variant = 0) const;

  /// Linear lookup by axis indices; nullptr when absent.
  const CellResult* find(std::size_t machine, std::size_t mix,
                         std::size_t allocator, std::size_t seed = 0,
                         std::size_t variant = 0) const;
};

/// Deterministic seed for decorating a cell's job log: depends on exactly
/// (base seed, machine name, mix name). The allocator is excluded on
/// purpose — all allocator columns of a comparison group must see the same
/// decorated log.
std::uint64_t derive_mix_seed(std::uint64_t base, std::string_view machine,
                              std::string_view mix);

/// Deterministic per-cell seed: depends on exactly (base seed, machine
/// name, mix name, allocator name) — never on iteration order or thread id.
/// Recorded in CellResult and available to future stochastic cell stages.
std::uint64_t derive_cell_seed(std::uint64_t base, std::string_view machine,
                               std::string_view mix,
                               std::string_view allocator);

/// Execute every admitted cell of `spec` through run_indexed and reduce in
/// cell order. Exceptions thrown inside cells are rethrown on the calling
/// thread (lowest cell index wins) after every cell has run.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignSpec spec);

  CampaignResult run();

  const CampaignSpec& spec() const noexcept { return spec_; }

 private:
  CampaignSpec spec_;
};

/// Convenience for one-off runs outside a grid (single-cell harnesses like
/// bench_audit_overhead): decorate a copy of the machine's log with `mix`
/// (seeded via derive_mix_seed, so it matches the equivalent campaign cell
/// bit for bit) and run it under `kind`. `base` supplies non-allocator
/// SchedOptions; `seed` defaults to exp::base_seed().
SimResult run_one(const MachineCase& machine, const MixSpec& mix,
                  AllocatorKind kind, const SchedOptions* base = nullptr,
                  std::uint64_t seed = 0);

}  // namespace commsched::exp
