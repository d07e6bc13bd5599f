// Ablations of the design choices DESIGN.md §4 calls out.
//
//   1. Adaptive candidate estimator: Eq. 6 hops vs hop-bytes weighting.
//      (§6.4 notes adaptive sometimes mis-ranks candidates — "errors in
//      estimating the relative cost"; hop-bytes is the candidate fix.)
//      Runs as one campaign over the SchedOptions-variant axis of the
//      engine in src/exp.
//   2. Candidate self-inclusion: price candidates with vs without the job's
//      own nodes contributing to leaf contention.
//   3. Process-mapping extension (paper §7 future work): Eq. 6 cost before
//      vs after switch-major reordering + swap hill-climb, on individual
//      probes.
#include <iostream>
#include <span>
#include <utility>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/allocator_common.hpp"
#include "core/cost_model.hpp"
#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "mapping/reorder.hpp"
#include "metrics/summary.hpp"
#include "sched/individual.hpp"
#include "util/rng.hpp"

namespace {
using namespace commsched;

exp::OptionsVariant estimator_variant(const char* name, CostOptions options) {
  exp::OptionsVariant v;
  v.name = name;
  v.options.cost_options = options;
  return v;
}
}  // namespace

int main() {
  // --- 1 & 2: adaptive estimator variants, one campaign -------------------
  exp::CampaignSpec spec;
  spec.name = "ablation";
  spec.machines.push_back(exp::paper_machine("Theta"));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kAdaptive};
  spec.variants = {
      estimator_variant("hop-bytes pricing (default)",
                        CostOptions{.hop_bytes = true}),
      estimator_variant("pure Eq. 6 hops pricing",
                        CostOptions{.hop_bytes = false}),
      estimator_variant("hop-bytes, no candidate self-inclusion",
                        CostOptions{.hop_bytes = true,
                                    .include_candidate = false}),
  };
  // The default allocator ignores the estimator, so one baseline cell is
  // enough: default runs only under the first variant.
  spec.filter = [](const exp::CampaignSpec& s, const exp::CellCoord& c) {
    return s.allocators[c.allocator] == AllocatorKind::kAdaptive ||
           c.variant == 0;
  };

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(),
                            "Ablation — adaptive estimator campaign", result,
                            "ablation_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();
  const exp::MachineCase& theta = grid.machines[0];
  const MixSpec& mix = grid.mixes[0];

  TextTable variants;
  variants.set_header({"adaptive variant", "total exec (h)", "total wait (h)",
                       "total cost"});
  const RunSummary& def = result.at(0, 0, 0, 0, 0).summary;
  variants.add_row({"(default allocator baseline)",
                    cell(def.total_exec_hours, 1),
                    cell(def.total_wait_hours, 1), cell(def.total_cost, 0)});
  for (std::size_t v = 0; v < grid.variants.size(); ++v) {
    const RunSummary& s = result.at(0, 0, 1, 0, v).summary;
    variants.add_row({grid.variants[v].name, cell(s.total_exec_hours, 1),
                      cell(s.total_wait_hours, 1), cell(s.total_cost, 0)});
  }
  exp::emit("Ablation — adaptive cost-estimator variants (Theta)",
            variants, "ablation_estimator");

  // --- 3: process-mapping extension on individual probes ------------------
  // Build a prefilled state, allocate probes with the default policy, and
  // compare Eq. 6 costs of the raw rank order vs the remapped order.
  const std::uint64_t seed =
      exp::derive_mix_seed(exp::base_seed(), theta.name, mix.name);
  JobLog probes = theta.base_log;
  apply_mix(probes, mix, seed + 1);
  Rng rng(seed + 2);
  rng.shuffle(probes);
  if (probes.size() > 60) probes.resize(60);

  ClusterState state(theta.tree);
  // Fragment the machine so default allocations interleave leaves.
  Rng fill(seed + 3);
  JobId filler = 1'000'000;
  for (const SwitchId leaf : theta.tree.leaves()) {
    std::vector<NodeId> busy;
    for (const NodeId n : theta.tree.nodes_of_leaf(leaf))
      if (fill.bernoulli(0.45)) busy.push_back(n);
    if (!busy.empty()) state.allocate(filler++, fill.bernoulli(0.5), busy);
  }

  // The policies in this library hand out leaf-contiguous node lists, so
  // there is nothing for rank reordering to recover there. The extension
  // matters when the allocation order itself scatters ranks — e.g. a
  // cyclic/striped distribution, or node lists coming from an external RM.
  // Emulate that worst case: stripe each probe's nodes round-robin across
  // the leaves it touches, then reorder.
  const auto default_alloc = make_allocator(AllocatorKind::kDefault);
  const CostModel model(theta.tree, CostOptions{.hop_bytes = true});
  CommCache profiles(1 << 20);
  CostWorkspace workspace;
  const auto price = [&](std::span<const NodeId> order, Pattern pattern) {
    return profiled_candidate_cost(model, profiles, state, order, true,
                                   pattern, workspace);
  };
  double cost_striped = 0.0, cost_major = 0.0, cost_climbed = 0.0;
  int evaluated = 0;
  for (const auto& job : probes) {
    if (!job.comm_intensive || job.num_nodes < 2) continue;
    if (job.num_nodes > state.total_free()) continue;
    AllocationRequest request;
    request.job = job.id;
    request.num_nodes = job.num_nodes;
    request.comm_intensive = true;
    request.pattern = job.pattern;
    const auto nodes = default_alloc->select(state, request);
    if (!nodes) continue;
    // Stripe: group by leaf, then deal nodes out one leaf at a time.
    std::vector<std::vector<NodeId>> per_leaf_nodes;
    {
      std::vector<NodeId> grouped = switch_major_order(theta.tree, *nodes);
      per_leaf_nodes.emplace_back();
      for (std::size_t i = 0; i < grouped.size(); ++i) {
        if (i > 0 && theta.tree.leaf_of(grouped[i]) !=
                         theta.tree.leaf_of(grouped[i - 1]))
          per_leaf_nodes.emplace_back();
        per_leaf_nodes.back().push_back(grouped[i]);
      }
    }
    if (per_leaf_nodes.size() < 2) continue;  // single leaf: nothing to show
    std::vector<NodeId> striped;
    for (std::size_t round = 0; striped.size() < nodes->size(); ++round)
      for (const auto& leaf_nodes : per_leaf_nodes)
        if (round < leaf_nodes.size()) striped.push_back(leaf_nodes[round]);

    cost_striped += price(striped, job.pattern);
    const auto major = switch_major_order(theta.tree, striped);
    cost_major += price(major, job.pattern);
    const auto climbed = improve_mapping(
        state, model, job.pattern, profiles.base_msize(), striped, true);
    cost_climbed += price(climbed, job.pattern);
    ++evaluated;
  }
  TextTable mapping_table;
  mapping_table.set_header({"rank order", "total hop-bytes cost",
                            "reduction %", "probes"});
  mapping_table.add_row({"striped across leaves (worst case)",
                         cell(cost_striped, 0), "-",
                         std::to_string(evaluated)});
  mapping_table.add_row({"switch-major reorder", cell(cost_major, 0),
                         cell(improvement_percent(cost_striped, cost_major), 2),
                         std::to_string(evaluated)});
  mapping_table.add_row(
      {"switch-major + swap hill-climb", cell(cost_climbed, 0),
       cell(improvement_percent(cost_striped, cost_climbed), 2),
       std::to_string(evaluated)});
  exp::emit(
      "Ablation — §7 process-mapping extension (default allocations, Theta)",
      mapping_table, "ablation_mapping");
  std::cout << "\n";
  return 0;
}
