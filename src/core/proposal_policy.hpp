// Move proposal policies for the simulated-annealing allocator.
//
// The SA allocator (src/core/sa_allocator) separates *search control*
// (temperature schedule, Metropolis acceptance, budget) from *move
// generation*: each anneal step asks a ProposalPolicy for the next candidate
// move set, prices it with CostModel::cost_delta, and feeds accepted moves
// back through on_accept(). The interface is the drop-in point for a learned
// proposer (neural-SA style, arXiv 2302.03517): a model that scores moves can
// implement propose() without touching the allocator or the cost model.
//
// Built-in policies:
//   UniformProposalPolicy   uniform random slot + uniform random target leaf
//                           (plus uniform slot-pair swaps) — the classic SA
//                           baseline;
//   LocalityProposalPolicy  same move space, but reassignment targets are
//                           rejection-sampled toward leaves close (Eq. 4
//                           distance) to another slot of the job, biasing the
//                           walk toward compact placements.
//
// Policies may return infeasible proposals (occupied target leaf, not enough
// free nodes): the allocator validates every proposal and skips infeasible
// ones while still consuming budget, so the anneal always terminates.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "cluster/state.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"
#include "util/rng.hpp"

namespace commsched {

/// Frozen per-anneal context a policy draws from. Spans point into the
/// allocator's scratch: `slot_leaf` tracks the *current* assignment (updated
/// after every accepted move), `candidate_leaves` lists every leaf with
/// enough free nodes for the smallest slot (superset of the feasible
/// targets; per-move capacity is re-checked by the allocator).
struct SaMoveContext {
  const ClusterState* state = nullptr;
  const Tree* tree = nullptr;
  std::span<const SwitchId> slot_leaf;
  std::span<const std::int32_t> slot_nnodes;
  std::span<const SwitchId> candidate_leaves;
};

/// One proposed move set: count == 1 is a leaf reassignment, count == 2 a
/// two-slot leaf swap (moves[1] must target moves[0]'s current leaf and vice
/// versa).
struct MoveProposal {
  std::array<SlotMove, kMaxDeltaMoves> moves{};
  std::size_t count = 0;
};

/// Move generator for the SA allocator. Implementations keep any state in
/// members reused across calls (the allocator's select() hot path is
/// allocation-free) and must draw all randomness from the passed Rng so the
/// anneal stays deterministic under a fixed seed. An anneal may end before
/// its budget or patience runs out (a one-slot anneal stops once every
/// candidate leaf has been priced), so a policy must not count on a fixed
/// number of propose() calls.
class ProposalPolicy {
 public:
  virtual ~ProposalPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Reset per-anneal state; called once before the first propose().
  virtual void begin(const SaMoveContext& ctx) = 0;

  /// Draw the next move set into `out`. Returns false when the policy cannot
  /// produce any move for this context (single slot and no free target
  /// leaves), which ends the anneal.
  virtual bool propose(const SaMoveContext& ctx, Rng& rng,
                       MoveProposal& out) = 0;

  /// Observe an accepted move (hook for adaptive/learned policies; default
  /// no-op).
  virtual void on_accept(const SaMoveContext& ctx,
                         const MoveProposal& accepted);
};

/// Uniform random moves: with probability kSwapProbability (and >= 2 slots)
/// a uniform slot-pair swap, otherwise a uniform slot reassigned to a
/// uniform candidate leaf.
class UniformProposalPolicy final : public ProposalPolicy {
 public:
  const char* name() const noexcept override { return "uniform"; }
  void begin(const SaMoveContext& ctx) override;
  bool propose(const SaMoveContext& ctx, Rng& rng, MoveProposal& out) override;
};

/// Locality-biased moves: swaps as in UniformProposalPolicy, but
/// reassignment targets are rejection-sampled with acceptance probability
/// 2 / d(anchor, target) against a uniformly chosen anchor slot — leaves
/// near the rest of the job are proposed more often, steering the anneal
/// toward low-distance placements without excluding any reachable target.
class LocalityProposalPolicy final : public ProposalPolicy {
 public:
  const char* name() const noexcept override { return "locality"; }
  void begin(const SaMoveContext& ctx) override;
  bool propose(const SaMoveContext& ctx, Rng& rng, MoveProposal& out) override;
};

}  // namespace commsched
