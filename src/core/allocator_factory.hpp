// Policy selection, mirroring the paper's JOBAWARE environment switch (§5.2):
// when JOBAWARE is set, SLURM runs the proposed algorithm named by its value;
// unset, it runs the stock allocator.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "core/sa_allocator.hpp"

namespace commsched {

enum class AllocatorKind : int {
  kDefault = 0,
  kGreedy = 1,
  kBalanced = 2,
  kAdaptive = 3,
  /// Related-work baseline (§2, Pollard et al.): interference-free
  /// whole-switch allocation. Not part of the paper's policy set, so it is
  /// deliberately absent from kAllAllocatorKinds.
  kExclusive = 4,
  /// §7 future work: combines the communication cost model with the I/O
  /// contention model. Also outside kAllAllocatorKinds.
  kIoAware = 5,
  /// Search-based extension (DESIGN.md "Delta-cost evaluation & search
  /// allocators"): adaptive seeding + simulated annealing over slot moves.
  /// Outside kAllAllocatorKinds (not a paper policy).
  kSa = 6,
};

/// The paper's four policies (Tables 3-4, Figures 6-9 iterate over these).
inline constexpr AllocatorKind kAllAllocatorKinds[] = {
    AllocatorKind::kDefault, AllocatorKind::kGreedy, AllocatorKind::kBalanced,
    AllocatorKind::kAdaptive};

/// Every registered policy, paper and extensions alike — the source of truth
/// for name listings and exhaustiveness tests.
inline constexpr AllocatorKind kAllRegisteredAllocatorKinds[] = {
    AllocatorKind::kDefault,   AllocatorKind::kGreedy,
    AllocatorKind::kBalanced,  AllocatorKind::kAdaptive,
    AllocatorKind::kExclusive, AllocatorKind::kIoAware,
    AllocatorKind::kSa};

const char* allocator_kind_name(AllocatorKind kind);

/// Parse a registered policy name, e.g. "default" / "adaptive" / "sa"
/// (case-sensitive; the full list is allocator_kind_names()).
std::optional<AllocatorKind> allocator_kind_from_string(const std::string& s);

/// Comma-separated list of every registered policy name (for error
/// messages; derived from kAllRegisteredAllocatorKinds).
std::string allocator_kind_names();

/// Instantiate a policy. `cost_options` only affects the pricing policies
/// (adaptive, I/O-aware, sa); `sa` only the sa policy. `cache` is the
/// run-wide profile cache those policies should share with their caller
/// (e.g. the simulator); when null, pricing policies create a private one.
std::unique_ptr<Allocator> make_allocator(
    AllocatorKind kind, CostOptions cost_options = {},
    std::shared_ptr<CommCache> cache = nullptr, const SaOptions& sa = {});

/// The paper's JOBAWARE switch: reads the JOBAWARE environment variable.
/// Unset or empty -> kDefault; "1" -> kAdaptive (the paper's best policy);
/// otherwise the named policy. Throws InvariantError on unknown names.
AllocatorKind allocator_kind_from_env();

}  // namespace commsched
