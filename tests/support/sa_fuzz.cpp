#include "support/sa_fuzz.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace commsched {

ClusterState sa_fuzz_state(const Tree& tree, std::uint64_t seed) {
  ClusterState state(tree);
  Rng rng(seed);
  JobId job = 1;
  for (const SwitchId leaf : tree.leaves()) {
    const double fill = rng.bernoulli(0.25)   ? 0.0
                        : rng.bernoulli(0.2) ? 1.0
                                             : rng.uniform_real(0.1, 0.9);
    std::vector<NodeId> taken;
    for (const NodeId n : tree.nodes_of_leaf(leaf))
      if (rng.bernoulli(fill)) taken.push_back(n);
    if (!taken.empty()) state.allocate(job++, rng.bernoulli(0.6), taken);
  }
  return state;
}

std::vector<int> sa_request_sizes(const ClusterState& state, int multi_cap) {
  int one_leaf = 0;
  for (const SwitchId leaf : state.tree().leaves())
    one_leaf = std::max(one_leaf, state.leaf_free(leaf));
  std::vector<int> sizes;
  for (const int n : {2, one_leaf / 2, one_leaf})
    if (n >= 2) sizes.push_back(n);
  const int total = std::min(state.total_free(), multi_cap);
  for (const int n : {one_leaf + 1, (one_leaf + 1 + total) / 2})
    if (n > one_leaf && n <= total) sizes.push_back(n);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

JobLog sa_fuzz_log(const Tree& tree, int n_jobs, std::uint64_t seed) {
  LogProfile profile = scale_profile(theta_profile(), tree.node_count());
  profile.min_exp = 1;
  profile.max_exp = 6;
  JobLog log = generate_log(profile, n_jobs, seed);
  MixSpec spec = uniform_mix(Pattern::kRecursiveDoubling, 0.8);
  spec.patterns = {{Pattern::kRecursiveDoubling, 1.0},
                   {Pattern::kRecursiveHalvingVD, 1.0},
                   {Pattern::kBinomial, 1.0},
                   {Pattern::kRing, 1.0},
                   {Pattern::kPairwiseAlltoall, 1.0}};
  apply_mix(log, spec, seed ^ 0x9E3779B97F4A7C15ull);
  return log;
}

}  // namespace commsched
