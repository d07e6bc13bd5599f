// Inspect the step structure of the collective algorithms the scheduler
// reasons about (§3.3): which rank pairs exchange at each step, the per-step
// message sizes, and the Eq. 6 cost of block vs interleaved placements on a
// two-switch topology.
//
//   $ ./pattern_explorer [nprocs] [pattern]
//   $ ./pattern_explorer 12 RHVD
#include <algorithm>
#include <iostream>
#include <string>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/allocator_common.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"
#include "util/strings.hpp"

using namespace commsched;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: pattern_explorer [nprocs] "
               "[RD|RHVD|Binomial|Ring|Alltoall]\n";
  std::exit(2);
}

Pattern parse_pattern(const std::string& s) {
  if (s == "RD") return Pattern::kRecursiveDoubling;
  if (s == "RHVD") return Pattern::kRecursiveHalvingVD;
  if (s == "Binomial") return Pattern::kBinomial;
  if (s == "Ring") return Pattern::kRing;
  if (s == "Alltoall") return Pattern::kPairwiseAlltoall;
  usage("unknown pattern '" + s + "'");
}

}  // namespace

int main(int argc, char** argv) {
  int nprocs = 8;
  Pattern pattern = Pattern::kRecursiveDoubling;
  if (argc > 1) {
    const auto v = parse_int_at_least(argv[1], 2);
    if (!v || *v > 4096)
      usage(std::string("nprocs must be an integer in [2, 4096], got '") +
            argv[1] + "'");
    nprocs = *v;
  }
  if (argc > 2) pattern = parse_pattern(argv[2]);
  if (pattern == Pattern::kPairwiseAlltoall && nprocs > 1024)
    usage("Alltoall schedules are capped at 1024 ranks");

  const double base = 1 << 20;
  const CommSchedule schedule = make_schedule(pattern, nprocs, base);
  std::cout << pattern_name(pattern) << " over " << nprocs << " ranks: "
            << schedule.size() << " steps, "
            << total_pair_messages(schedule) << " pair-messages, "
            << total_bytes(schedule) / (1 << 20) << " MiB total\n\n";

  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const CommStep& step = schedule[s];
    std::cout << "step " << s << "  msize=" << step.msize / (1 << 20)
              << " MiB";
    if (step.repeat > 1) std::cout << "  x" << step.repeat << " rounds";
    std::cout << "\n  pairs:";
    const std::size_t shown = std::min<std::size_t>(step.pairs.size(), 16);
    for (std::size_t p = 0; p < shown; ++p)
      std::cout << " (" << step.pairs[p].first << ","
                << step.pairs[p].second << ")";
    if (shown < step.pairs.size())
      std::cout << " ... +" << step.pairs.size() - shown << " more";
    std::cout << "\n";
  }

  // Cost comparison on a two-switch machine, half the ranks per switch.
  const int per_leaf = (nprocs + 1) / 2;
  const Tree tree = make_two_level_tree(2, per_leaf);
  const ClusterState state(tree);
  const CostModel model(tree);
  CommCache cache(base);
  CostWorkspace workspace;
  const auto cost_of = [&](const std::vector<NodeId>& nodes) {
    return profiled_candidate_cost(model, cache, state, nodes, true, pattern,
                                   workspace);
  };
  std::vector<NodeId> block, interleaved;
  for (int r = 0; r < nprocs; ++r) {
    block.push_back(r < per_leaf ? r : per_leaf + (r - per_leaf));
    interleaved.push_back(r % 2 == 0 ? r / 2 : per_leaf + r / 2);
  }
  // block: ranks 0..h-1 on leaf 0, the rest on leaf 1. interleaved: even
  // ranks on leaf 0, odd on leaf 1.
  std::cout << "\nEq.6 cost on a 2-switch machine (" << per_leaf
            << " nodes/switch):\n"
            << "  block placement:       " << cost_of(block) << "\n"
            << "  interleaved placement: " << cost_of(interleaved) << "\n"
            << "\nThe balanced allocator (§4.2) exists to make the block-like"
            << "\nplacement happen, keeping the heavy exchanges intra-switch.\n";
  return 0;
}
