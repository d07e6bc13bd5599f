#include "support/profile_oracle.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

LeafCommProfile oracle_leaf_comm_profile(Pattern pattern, double base_msize,
                                         const ShapeKey& shape,
                                         int ranks_per_node) {
  COMMSCHED_ASSERT_GE_MSG(ranks_per_node, 1,
                          "need at least one rank per node");
  LeafCommProfile profile;
  profile.num_slots = shape.num_slots;
  profile.ranks_per_node = ranks_per_node;
  profile.nprocs = shape.total_nodes * ranks_per_node;
  profile.base_msize = base_msize;
  if (profile.nprocs < 2) return profile;

  // Expand the RLE back to node index -> leaf slot.
  std::vector<std::int32_t> node_slot;
  node_slot.reserve(static_cast<std::size_t>(shape.total_nodes));
  for (const auto& [slot, count] : shape.runs) {
    COMMSCHED_ASSERT(slot >= 0 && slot < shape.num_slots && count >= 1);
    node_slot.insert(node_slot.end(), static_cast<std::size_t>(count),
                     slot);
  }
  COMMSCHED_ASSERT_EQ_MSG(static_cast<int>(node_slot.size()),
                          shape.total_nodes,
                          "shape runs do not cover total_nodes");

  const auto k = static_cast<std::size_t>(shape.num_slots);
  std::vector<std::uint8_t> pair_seen(k * k, 0);
  // Distinct leaf-pair set -> class id, in first-appearance order.
  std::map<std::vector<std::pair<std::int32_t, std::int32_t>>, std::int32_t>
      class_ids;
  std::vector<std::pair<std::int32_t, std::int32_t>> step_pairs;

  for_each_schedule_step(
      pattern, profile.nprocs, base_msize, [&](const CommStep& step) {
        ProfileStep ps;
        ps.msize = step.msize;
        ps.repeat = step.repeat;
        step_pairs.clear();
        for (const auto& [ri, rj] : step.pairs) {
          COMMSCHED_ASSERT_MSG(ri >= 0 && rj >= 0 && ri < profile.nprocs &&
                                   rj < profile.nprocs,
                               "schedule rank out of range for this shape");
          ++ps.rank_pairs;
          const int ni = ri / ranks_per_node;
          const int nj = rj / ranks_per_node;
          if (ni == nj) {
            ++ps.same_node_pairs;  // zero hops, never priced
            continue;
          }
          auto sa = node_slot[static_cast<std::size_t>(ni)];
          auto sb = node_slot[static_cast<std::size_t>(nj)];
          if (sa > sb) std::swap(sa, sb);
          if (sa == sb) ++ps.same_leaf_pairs;
          auto& seen = pair_seen[static_cast<std::size_t>(sa) * k +
                                 static_cast<std::size_t>(sb)];
          if (!seen) {
            seen = 1;
            step_pairs.emplace_back(sa, sb);
          }
        }
        for (const auto& [sa, sb] : step_pairs)
          pair_seen[static_cast<std::size_t>(sa) * k +
                    static_cast<std::size_t>(sb)] = 0;
        std::sort(step_pairs.begin(), step_pairs.end());
        const auto [it, inserted] = class_ids.try_emplace(
            step_pairs, static_cast<std::int32_t>(profile.classes.size()));
        if (inserted) profile.classes.push_back({step_pairs});
        ps.cls = it->second;
        profile.steps.push_back(ps);
        return true;
      });
  return profile;
}

}  // namespace commsched
