#include "collectives/comm_cache.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace commsched {

// contract-trusted: no-alloc: key construction is bounded by job-start
// pricing (a handful of candidate shapes per start), never the per-leaf
// selection loops; its vectors are leaf/node sized and die with the call
ShapeKey make_shape_key(const Tree& tree, std::span<const NodeId> nodes) {
  ShapeKey key;
  key.total_nodes = static_cast<int>(nodes.size());
  key.runs.reserve(8);
  // Dense leaf index -> first-appearance slot; rebuilt per call (leaf_count
  // is small — one entry per leaf switch, not per node).
  std::vector<std::int32_t> slot_of_leaf(
      static_cast<std::size_t>(tree.leaf_count()), -1);
  std::vector<std::uint8_t> seen_node(
      static_cast<std::size_t>(tree.node_count()), 0);
  for (const NodeId n : nodes) {
    auto& seen = seen_node[static_cast<std::size_t>(n)];
    COMMSCHED_ASSERT_MSG(!seen, "allocation lists a node twice");
    seen = 1;
    const SwitchId leaf = tree.leaf_of(n);
    auto& slot = slot_of_leaf[static_cast<std::size_t>(tree.leaf_index(leaf))];
    if (slot < 0) slot = key.num_slots++;
    if (!key.runs.empty() && key.runs.back().first == slot)
      ++key.runs.back().second;
    else
      key.runs.emplace_back(slot, 1);
  }
  return key;
}

namespace {

// A maximal interval [begin, end) of rank indices (or, for the MPICH fold's
// core steps, of core indices) whose nodes sit under one leaf slot. The runs
// of one index space tile it in order.
struct Run {
  std::int32_t begin = 0;
  std::int32_t end = 0;
  std::int32_t slot = 0;
};

// Indices i in [0, x) with (i & bit) == 0; bit is 0 (no filter) or a power
// of two.
std::int64_t count_bit_clear(std::int64_t x, std::int64_t bit) {
  if (bit == 0) return x;
  // Whole 2*bit periods contribute bit each, the partial one up to bit.
  const std::int64_t period_mask = 2 * bit - 1;
  return ((x & ~period_mask) >> 1) + std::min(x & period_mask, bit);
}

// Lowers schedule steps onto rank runs one step at a time. Each step is a
// union of pieces whose partner map is affine on an index interval:
// i -> i + d over [lo, hi), optionally only where (i & d) == 0 (an XOR with
// one bit), or, for power-of-two alltoall, i -> i ^ k over the ranks with
// k's top bit clear. A piece meets O(runs) run pairs and each run pair's
// pair counts have a closed form, so a step costs O(runs) (O(runs log p)
// for the multi-bit XOR) instead of O(rank pairs).
class StepLowering {
 public:
  StepLowering(LeafCommProfile& profile, std::vector<Run> rank_runs,
               bool one_node_per_run)
      : profile_(profile),
        rank_runs_(std::move(rank_runs)),
        one_node_per_run_(one_node_per_run),
        pair_seen_(static_cast<std::size_t>(profile.num_slots) *
                       static_cast<std::size_t>(profile.num_slots),
                   0) {}

  const std::vector<Run>& rank_runs() const { return rank_runs_; }

  // Pairs (i, i + d) for i in [lo, hi) with (i & bit) == 0, i and i + d
  // indexing `runs`. Two pointers: the partner run only moves forward.
  void add_shift(std::span<const Run> runs, int d, int lo, int hi, int bit) {
    std::size_t b = 0;  // the run holding the next partner
    for (std::size_t a = 0; a < runs.size() && runs[a].begin < hi; ++a) {
      const int x0 = std::max(runs[a].begin, lo);
      const int x1 = std::min(runs[a].end, hi);
      if (x0 >= x1) continue;
      const std::int64_t c0 = count_bit_clear(x0, bit);
      const std::int64_t c1 = count_bit_clear(x1, bit);
      if (c0 == c1) continue;
      while (runs[b].end <= x0 + d) ++b;
      // Split [x0, x1) where the partners cross into the next run. Past the
      // last run no index has a partner, so the filter leaves none there.
      for (int y0 = x0;; ++b) {
        const int y1 = std::min(x1, runs[b].end - d);
        const std::int64_t pairs =
            (y1 == x1 ? c1 : count_bit_clear(y1, bit)) -
            (y0 == x0 ? c0 : count_bit_clear(y0, bit));
        if (pairs != 0)
          add(runs[a], runs[b], pairs,
              a == b ? on_node_in_run(d, bit, y0, y1, pairs) : 0);
        if (y1 == x1 || b + 1 == runs.size()) break;
        y0 = y1;
      }
      if (bit != 0 && (x1 & bit) != 0) {
        // The runs wholly inside the set half that follows have no pairs.
        const int next = (x1 | (2 * bit - 1)) + 1;
        while (a + 1 < runs.size() && runs[a + 1].end <= next) ++a;
      }
    }
  }

  // Power-of-two alltoall step k: pairs (i, i ^ k) over the rank runs for
  // the ranks i with k's top bit clear.
  void add_xor(int k) {
    const int p = profile_.nprocs;
    if (k < profile_.ranks_per_node) {
      // rpn is a power of two here, so i ^ k stays on i's node.
      rank_pairs_ += p / 2;
      same_node_ += p / 2;
      return;
    }
    if (run_of_node_.empty()) {
      for (std::size_t r = 0; r < rank_runs_.size(); ++r)
        run_of_node_.insert(run_of_node_.end(),
                            static_cast<std::size_t>(
                                (rank_runs_[r].end - rank_runs_[r].begin) /
                                profile_.ranks_per_node),
                            static_cast<std::int32_t>(r));
    }
    const int half =
        static_cast<int>(std::bit_floor(static_cast<unsigned>(k)));
    const int period_mask = 2 * half - 1;
    for (std::size_t a = 0; a < rank_runs_.size(); ++a) {
      const Run& run = rank_runs_[a];
      for (int u = run.begin; u < run.end;) {
        const int period = u & ~period_mask;
        if (u == period && run.end - u > period_mask) {
          // XOR by k maps every aligned period onto itself, so the pairs of
          // the periods wholly inside the run stay inside it.
          const int whole = (run.end & ~period_mask) - u;
          add(run, run, whole / 2, 0);
          u += whole;
          continue;
        }
        const int lower_end = std::min(run.end, period + half);
        if (u < lower_end) add_xor_piece(run, u, lower_end, k, half);
        u = std::min(run.end, period + period_mask + 1);
      }
      if ((run.end & half) != 0) {
        // The runs wholly inside the upper half that follows have no pairs.
        const int next = (run.end | period_mask) + 1;
        while (a + 1 < rank_runs_.size() && rank_runs_[a + 1].end <= next)
          ++a;
      }
    }
  }

  // Closes the step: dedups its leaf pairs into a class (first-appearance
  // order) and appends it to the profile.
  void finish_step(double msize, int repeat) {
    for (const auto& [sa, sb] : step_pairs_)
      pair_seen_[seen_index(sa, sb)] = 0;
    std::sort(step_pairs_.begin(), step_pairs_.end());
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the pairs
    for (const auto& [sa, sb] : step_pairs_) {
      h = (h ^ static_cast<std::uint32_t>(sa)) * 1099511628211ULL;
      h = (h ^ static_cast<std::uint32_t>(sb)) * 1099511628211ULL;
    }
    // Classes stay few (9 for alltoall on 8 block leaves, 19 on 12 striped
    // ones), so a scan over their hashes finds the step's class.
    std::size_t cls = 0;
    while (cls < class_hash_.size() &&
           (class_hash_[cls] != h ||
            profile_.classes[cls].leaf_pairs != step_pairs_))
      ++cls;
    if (cls == class_hash_.size()) {
      profile_.classes.push_back({step_pairs_});
      class_hash_.push_back(h);
    }
    profile_.steps.push_back({.cls = static_cast<std::int32_t>(cls),
                              .msize = msize,
                              .repeat = repeat,
                              .rank_pairs = rank_pairs_,
                              .same_node_pairs = same_node_,
                              .same_leaf_pairs = same_leaf_});
    step_pairs_.clear();
    rank_pairs_ = same_node_ = same_leaf_ = 0;
  }

 private:
  // `pairs` pairs from run a to run b, `on_node` of them on one node.
  void add(const Run& a, const Run& b, std::int64_t pairs,
           std::int64_t on_node) {
    rank_pairs_ += pairs;
    same_node_ += on_node;
    const std::int64_t cross = pairs - on_node;
    if (cross == 0) return;
    const auto [sa, sb] = std::minmax(a.slot, b.slot);
    if (sa == sb) same_leaf_ += cross;
    auto& seen = pair_seen_[seen_index(sa, sb)];
    if (!seen) [[unlikely]] {
      seen = 1;
      step_pairs_.emplace_back(sa, sb);
    }
  }

  std::size_t seen_index(std::int32_t sa, std::int32_t sb) const {
    return static_cast<std::size_t>(sa) *
               static_cast<std::size_t>(profile_.num_slots) +
           static_cast<std::size_t>(sb);
  }

  // How many of the `pairs` shift pairs (i, i + d), i in [x0, x1) with
  // (i & bit) == 0, inside one run have both ranks on one node. Runs start
  // and end on node boundaries, so pairs across runs never do.
  std::int64_t on_node_in_run(int d, int bit, int x0, int x1,
                              std::int64_t pairs) const {
    if (one_node_per_run_) return pairs;
    const int rpn = profile_.ranks_per_node;
    if (d >= rpn) return 0;
    if (bit != 0) {
      // Only the power-of-two core steps filter on a bit in rank space;
      // there rpn is a power of two too and i | d stays on i's node.
      COMMSCHED_ASSERT(std::has_single_bit(static_cast<unsigned>(rpn)));
      return pairs;
    }
    // i and i + d share a node iff i % rpn < rpn - d.
    const auto below = [rpn, d](std::int64_t x) {
      return x / rpn * (rpn - d) + std::min<std::int64_t>(x % rpn, rpn - d);
    };
    return below(x1) - below(x0);
  }

  // The pairs (i, i ^ k) for i in [u, v), a piece of run `from` inside the
  // lower (k's top bit clear) half of one 2*half period. Each aligned dyadic
  // block of [u, v) maps onto an aligned block of the same size.
  void add_xor_piece(const Run& from, int u, int v, int k, int half) {
    const int node_shift = std::countr_zero(
        static_cast<unsigned>(profile_.ranks_per_node));
    while (u < v) {
      const auto room = std::bit_floor(static_cast<unsigned>(v - u));
      const int size = static_cast<int>(
          u == 0 ? std::min(room, static_cast<unsigned>(half))
                 : std::min(room, static_cast<unsigned>(u & -u)));
      const int image = u ^ (k & ~(size - 1));
      for (auto r = static_cast<std::size_t>(
               run_of_node_[static_cast<std::size_t>(image >> node_shift)]);
           r < rank_runs_.size() && rank_runs_[r].begin < image + size; ++r)
        add(from, rank_runs_[r],
            std::min(image + size, rank_runs_[r].end) -
                std::max(image, rank_runs_[r].begin),
            0);
      u += size;
    }
  }

  LeafCommProfile& profile_;
  std::vector<Run> rank_runs_;
  bool one_node_per_run_;
  // The current step's distinct slot pairs, and a num_slots^2 membership
  // flag for each (cleared again by finish_step).
  std::vector<std::pair<std::int32_t, std::int32_t>> step_pairs_;
  std::vector<std::uint8_t> pair_seen_;
  std::vector<std::int32_t> run_of_node_;  // built by the first add_xor
  std::int64_t rank_pairs_ = 0;
  std::int64_t same_node_ = 0;
  std::int64_t same_leaf_ = 0;
  std::vector<std::uint64_t> class_hash_;  // FNV-1a of each class's pairs
};

// RD and RHVD. A ragged p folds MPICH-style (schedule.cpp): ranks
// (2i, 2i + 1), i < r, exchange before and after the power-of-two core,
// whose core index c is rank 2c + 1 below r and rank c + r from r on.
void lower_rd_like(StepLowering& lower, double base_msize, int p,
                   bool vector_doubling) {
  const int q = static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
  const int r = p - q;
  const std::vector<Run>& ranks = lower.rank_runs();
  std::vector<Run> folded;
  if (r > 0) {
    lower.add_shift(ranks, 1, 0, 2 * r, 1);
    lower.finish_step(base_msize, 1);
    // The core map is monotone, so a run of ranks is a run of core indices
    // (empty when it holds only even ranks below 2r).
    const auto core_below = [r](int x) { return x < 2 * r ? x / 2 : x - r; };
    for (const Run& run : ranks)
      if (core_below(run.begin) < core_below(run.end))
        folded.push_back(
            {core_below(run.begin), core_below(run.end), run.slot});
  }
  const std::span<const Run> core =
      r > 0 ? std::span<const Run>(folded) : std::span<const Run>(ranks);
  for (int k = 0; (1 << k) < q; ++k) {
    const int dist = vector_doubling ? q >> (k + 1) : 1 << k;
    lower.add_shift(core, dist, 0, q, dist);
    lower.finish_step(vector_doubling
                          ? base_msize * static_cast<double>(1 << k)
                          : base_msize,
                      1);
  }
  if (r > 0) {
    lower.add_shift(ranks, 1, 0, 2 * r, 1);
    lower.finish_step(
        vector_doubling ? base_msize * static_cast<double>(q) : base_msize,
        1);
  }
}

}  // namespace

LeafCommProfile make_leaf_comm_profile(Pattern pattern, double base_msize,
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
  const int p = profile.nprocs;

  // The fold's core map does not keep node boundaries on a power-of-two
  // grid, so a ragged RD/RHVD at rpn > 1 lowers on one run per node, where
  // a run's own pairs are exactly its on-node pairs: O(nodes) per step.
  const bool one_node_per_run =
      ranks_per_node > 1 && !std::has_single_bit(static_cast<unsigned>(p)) &&
      (pattern == Pattern::kRecursiveDoubling ||
       pattern == Pattern::kRecursiveHalvingVD);
  std::vector<Run> runs;
  runs.reserve(one_node_per_run ? static_cast<std::size_t>(shape.total_nodes)
                                 : shape.runs.size());
  int node = 0;
  for (const auto& [slot, count] : shape.runs) {
    COMMSCHED_ASSERT(slot >= 0 && slot < shape.num_slots && count >= 1);
    const int width = one_node_per_run ? 1 : count;
    for (const int stop = node + count; node < stop; node += width)
      runs.push_back(
          {node * ranks_per_node, (node + width) * ranks_per_node, slot});
  }
  COMMSCHED_ASSERT_EQ_MSG(node, shape.total_nodes,
                          "shape runs do not cover total_nodes");

  StepLowering lower(profile, std::move(runs), one_node_per_run);
  const std::vector<Run>& ranks = lower.rank_runs();
  switch (pattern) {
    case Pattern::kRecursiveDoubling:
      lower_rd_like(lower, base_msize, p, /*vector_doubling=*/false);
      return profile;
    case Pattern::kRecursiveHalvingVD:
      lower_rd_like(lower, base_msize, p, /*vector_doubling=*/true);
      return profile;
    case Pattern::kBinomial:
      for (int dist = 1; dist < p; dist *= 2) {
        lower.add_shift(ranks, dist, 0, std::min(dist, p - dist), 0);
        lower.finish_step(base_msize, 1);
      }
      return profile;
    case Pattern::kRing:
      lower.add_shift(ranks, 1, 0, p - 1, 0);
      if (p > 2) lower.add_shift(ranks, p - 1, 0, 1, 0);  // (0, p - 1)
      lower.finish_step(base_msize, p - 1);
      return profile;
    case Pattern::kPairwiseAlltoall: {
      // XOR exchange at power-of-two p; otherwise (i, i + k) for i < p - k.
      const bool pow2 = std::has_single_bit(static_cast<unsigned>(p));
      for (int k = 1; k < p; ++k) {
        if (pow2)
          lower.add_xor(k);
        else
          lower.add_shift(ranks, k, 0, p - k, 0);
        lower.finish_step(base_msize, 1);
      }
      return profile;
    }
  }
  COMMSCHED_ASSERT_MSG(false, "unknown pattern");
  return profile;
}

std::uint64_t hash_value(const ShapeKey& key) noexcept {
  // FNV-1a over the run list; the runs fully determine the shape
  // (total_nodes and num_slots are derived from them).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& [slot, count] : key.runs) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(count)));
  }
  return h;
}

std::size_t CommCache::ProfileKeyHash::operator()(
    const ProfileKey& key) const noexcept {
  std::uint64_t h = hash_value(key.shape);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(key.pattern));
  mix(static_cast<std::uint64_t>(key.ranks_per_node));
  return static_cast<std::size_t>(h);
}

// contract-trusted: no-alloc: memoizing run-wide cache; allocates only on
// the first sighting of a (pattern, shape) pair, steady-state lookups are
// hit-only (see stats_.profile_hits)
const LeafCommProfile& CommCache::profile(Pattern pattern, int ranks_per_node,
                                          const ShapeKey& shape) {
  ProfileKey key{pattern, ranks_per_node, shape};
  const auto it = profiles_.find(key);
  if (it != profiles_.end()) {
    ++stats_.profile_hits;
    return it->second;
  }
  ++stats_.profile_misses;
  LeafCommProfile profile =
      make_leaf_comm_profile(pattern, base_msize_, shape, ranks_per_node);
  return profiles_.emplace(std::move(key), std::move(profile)).first->second;
}

}  // namespace commsched
