// Quickstart: the public API in one file.
//
// Builds a small fat-tree, occupies part of it, and asks all four policies
// to place the same communication-intensive job, printing where each policy
// puts it and what the paper's cost model (Eqs. 2-6) thinks of the result.
//
//   $ ./quickstart
#include <iostream>
#include <map>
#include <memory>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator_common.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "core/runtime_model.hpp"
#include "topology/builders.hpp"
#include "topology/conf.hpp"
#include "util/table.hpp"

using namespace commsched;

int main() {
  // 1. A topology: four 16-node leaf switches under one root — the same
  //    shape you would describe in a SLURM topology.conf.
  const Tree tree = make_two_level_tree(4, 16);
  std::cout << "Topology (" << tree.node_count() << " nodes, "
            << tree.leaf_count() << " leaf switches):\n\n"
            << write_topology_conf(tree) << "\n";

  // 2. Some existing load: a communication-intensive job crowding leaf s0
  //    and a compute job on s1.
  ClusterState state(tree);
  state.allocate(/*job=*/1, /*comm_intensive=*/true,
                 std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7});
  state.allocate(/*job=*/2, /*comm_intensive=*/false,
                 std::vector<NodeId>{16, 17, 18, 19});

  // 3. A new communication-intensive job: 24 nodes — more than any single
  //    leaf switch holds, so every policy has to make a real placement
  //    decision — dominated by an MPI_Allgather (recursive halving +
  //    vector doubling).
  AllocationRequest request;
  request.job = 3;
  request.num_nodes = 24;
  request.comm_intensive = true;
  request.pattern = Pattern::kRecursiveHalvingVD;
  request.msize = 1 << 20;

  // Eq. 6 prices a placement through the job's collective schedule lowered
  // onto the placement's leaf-switch shape; the cache keeps one such
  // profile per distinct shape.
  const CostModel model(tree);
  CommCache cache(request.msize);
  CostWorkspace workspace;

  TextTable table;
  table.set_header({"policy", "nodes per leaf", "Eq.6 cost",
                    "est. runtime of a 1h job (Eq.7)"});
  double default_cost = 0.0;
  for (const AllocatorKind kind : kAllAllocatorKinds) {
    const auto allocator = make_allocator(kind);
    const auto nodes = allocator->select(state, request);
    if (!nodes) continue;
    std::map<SwitchId, int> per_leaf;
    for (const NodeId n : *nodes) ++per_leaf[tree.leaf_of(n)];
    std::string layout;
    for (const auto& [leaf, count] : per_leaf)
      layout += tree.switch_name(leaf) + ":" + std::to_string(count) + " ";
    const double cost = profiled_candidate_cost(
        model, cache, state, *nodes, true, request.pattern, workspace);
    if (kind == AllocatorKind::kDefault) default_cost = cost;
    // A 1-hour job spending half its time in the collective:
    const double runtime =
        modified_runtime(3600.0, 0.5, cost, default_cost);
    table.add_row({allocator->name(), layout, cell(cost, 2),
                   cell(runtime, 0) + " s"});
  }
  std::cout << "Placing a 24-node MPI_Allgather-heavy job:\n"
            << table.render(2)
            << "\nLower Eq.6 cost -> shorter estimated runtime (Eq.7).\n";
  return 0;
}
