// Micro-benchmark: CostModel's Eq. 5/6 profile kernel against the
// pair-by-pair oracle (tests/support/cost_oracle.hpp) on a Theta-like tree
// with a realistic background load. Every timed call returns one candidate
// cost.
//
// Two scenarios:
//   striped   allocation striped across all 12 leaves (worst case for leaf
//             dedup), rpn=1; times the oracle ("before") vs the cold profile
//             path (canonicalize the shape, build the profile uncached,
//             price it — what mapping/reorder pays per ordering) vs the warm
//             profile path (canonicalize, CommCache hit, price);
//   block8    fixed leaf footprint — 8 leaves, block-contiguous, 2 ranks per
//             node — at 512/1024/4096 ranks; times cold vs warm profile.
//             With the leaf footprint fixed, the warm-profile cost per call
//             should stay roughly flat as ranks grow (the class count
//             depends on the shape, not on p). The oracle is skipped here:
//             it walks all 8M rank pairs of the 4096-rank alltoall per call.
//
// Regression floor: the bench exits nonzero when, in block8 at 4096 ranks,
// cold/warm exceeds 2 for RD, RHVD, binomial or ring, or 100 for alltoall.
// Profiles lower from the shape's runs, so a build costs about as much as a
// cache hit; lowering from rank pairs again (O(p log p), or O(p^2) for
// alltoall) lands far above either limit.
//
// Outputs:
//   bench_out/micro_cost.csv           one row per (pattern, nranks), striped
//   bench_out/micro_cost_profile.csv   one row per (pattern, nranks), block8
//   BENCH_cost_model.json              perf snapshot at the repo root (run
//                                      from there) for regression tracking,
//                                      with the host CPU model, its core
//                                      count and the checkout's commit
//
// Run from the repo root: ./build/bench/bench_micro_cost
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "host_info.hpp"
#include "support/cost_oracle.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

// Allocation that stripes across leaves (greedy/balanced picks span leaves
// whenever a job outgrows one), so distinct leaf pairs are actually hit.
std::vector<NodeId> striped_allocation(const Tree& tree, int num_nodes,
                                       const ClusterState& state) {
  std::vector<NodeId> nodes;
  const auto leaves = tree.leaves();
  for (std::size_t round = 0; static_cast<int>(nodes.size()) < num_nodes;
       ++round) {
    bool any = false;
    for (const SwitchId leaf : leaves) {
      const auto attached = tree.nodes_of_leaf(leaf);
      if (round >= attached.size()) continue;
      const NodeId n = attached[round];
      if (!state.is_free(n)) continue;
      nodes.push_back(n);
      any = true;
      if (static_cast<int>(nodes.size()) == num_nodes) break;
    }
    if (!any) break;
  }
  return nodes;
}

// Fixed leaf footprint for the flat-scaling scenario: `num_nodes` nodes
// block-contiguous over the first 8 leaves (grow p by adding nodes/ranks to
// the same leaves; the canonical shape keeps exactly 8 slots).
std::vector<NodeId> block8_allocation(const Tree& tree, int num_nodes) {
  std::vector<NodeId> nodes;
  const int per_leaf = num_nodes / 8;
  const auto leaves = tree.leaves();
  for (int l = 0; l < 8; ++l) {
    const auto attached = tree.nodes_of_leaf(leaves[static_cast<std::size_t>(l)]);
    for (int i = 0; i < per_leaf; ++i)
      nodes.push_back(attached[static_cast<std::size_t>(i)]);
  }
  return nodes;
}

struct Row {
  std::string pattern;
  int nranks = 0;
  std::int64_t pair_messages = 0;
  double oracle_ns = 0.0;
  double profile_cold_ns = 0.0;
  double profile_warm_ns = 0.0;
};

struct ProfileRow {
  std::string pattern;
  int nranks = 0;
  std::size_t classes = 0;
  std::size_t steps = 0;
  double cold_ns = 0.0;
  double warm_ns = 0.0;
};

template <typename F>
double time_ns_per_call(F&& call, int min_reps) {
  // Warm up (the first call sizes the scratch), then time enough reps for
  // a stable average.
  volatile double sink = call();
  const auto start = std::chrono::steady_clock::now();
  int reps = 0;
  double elapsed_ns = 0.0;
  do {
    for (int i = 0; i < min_reps; ++i) sink = call();
    reps += min_reps;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  } while (elapsed_ns < 2e8);  // at least 0.2 s per measurement
  (void)sink;
  return elapsed_ns / reps;
}

int run() {
  // Open both outputs up front so a wrong working directory fails in
  // milliseconds, not after the full measurement sweep.
  std::ofstream csv("bench_out/micro_cost.csv");
  std::ofstream profile_csv("bench_out/micro_cost_profile.csv");
  std::ofstream json("BENCH_cost_model.json");
  if (!csv || !profile_csv || !json) {
    std::cerr << "cannot open bench_out/micro_cost*.csv or "
                 "BENCH_cost_model.json (run from the repo root)\n";
    return 1;
  }

  const Tree tree = make_theta();  // 12 leaves x 366 nodes
  ClusterState state(tree);

  // ~40% background occupancy, half of it communication-intensive, spread
  // over the leaves like a mixed running workload.
  Rng rng(20200817);
  std::vector<NodeId> comm_nodes, quiet_nodes;
  for (NodeId n = 0; n < tree.node_count(); ++n) {
    const double p = rng.uniform_real(0.0, 1.0);
    if (p < 0.2)
      comm_nodes.push_back(n);
    else if (p < 0.4)
      quiet_nodes.push_back(n);
  }
  state.allocate(1, /*comm=*/true, comm_nodes);
  state.allocate(2, /*comm=*/false, quiet_nodes);

  const CostModel model(tree);  // unweighted Eq. 6, candidate overlay on
  CommCache cache(1 << 20);
  CostWorkspace workspace;

  constexpr Pattern kPatterns[] = {
      Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
      Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

  // Full caller sequences: canonicalize the shape, then either build the
  // profile uncached (cold) or hit the cache (warm), then price it.
  const auto cold_cost = [&](Pattern pattern, int rpn,
                             const std::vector<NodeId>& nodes) {
    const LeafCommProfile built = make_leaf_comm_profile(
        pattern, 1 << 20, make_shape_key(tree, nodes), rpn);
    return model.candidate_cost(state, nodes, true, built, workspace);
  };
  const auto warm_cost = [&](Pattern pattern, int rpn,
                             const std::vector<NodeId>& nodes) {
    const ShapeKey key = make_shape_key(tree, nodes);
    const LeafCommProfile& profile = cache.profile(pattern, rpn, key);
    return model.candidate_cost(state, nodes, true, profile, workspace);
  };

  // --- striped scenario: oracle vs cold vs warm profile -------------------
  constexpr int kRanks[] = {64, 512, 1024};
  std::vector<Row> rows;
  for (const int nranks : kRanks) {
    const auto nodes = striped_allocation(tree, nranks, state);
    if (static_cast<int>(nodes.size()) < nranks) continue;
    for (const Pattern pattern : kPatterns) {
      const auto schedule = make_schedule(pattern, nranks, 1 << 20);
      Row row;
      row.pattern = pattern_name(pattern);
      row.nranks = nranks;
      row.pair_messages = total_pair_messages(schedule);
      row.oracle_ns = time_ns_per_call(
          [&] {
            return oracle_candidate_cost(model, state, nodes, 1, true,
                                         schedule);
          },
          4);
      row.profile_cold_ns =
          time_ns_per_call([&] { return cold_cost(pattern, 1, nodes); }, 1);
      row.profile_warm_ns =
          time_ns_per_call([&] { return warm_cost(pattern, 1, nodes); }, 16);
      rows.push_back(row);
      std::printf(
          "%-10s p=%5d pairs=%9lld oracle=%11.1f cold=%11.1f warm=%9.1f ns  "
          "oracle/warm=%6.1fx\n",
          row.pattern.c_str(), row.nranks,
          static_cast<long long>(row.pair_messages), row.oracle_ns,
          row.profile_cold_ns, row.profile_warm_ns,
          row.oracle_ns / row.profile_warm_ns);
    }
  }

  // --- block8 scenario: fixed leaf footprint, growing rank count ----------
  constexpr int kBlockRanks[] = {512, 1024, 4096};
  constexpr int kRpn = 2;
  std::vector<ProfileRow> profile_rows;
  for (const int nranks : kBlockRanks) {
    const auto nodes = block8_allocation(tree, nranks / kRpn);
    const ShapeKey key = make_shape_key(tree, nodes);
    for (const Pattern pattern : kPatterns) {
      ProfileRow row;
      row.pattern = pattern_name(pattern);
      row.nranks = nranks;
      const LeafCommProfile& warm_profile = cache.profile(pattern, kRpn, key);
      row.classes = warm_profile.classes.size();
      row.steps = warm_profile.steps.size();
      row.cold_ns =
          time_ns_per_call([&] { return cold_cost(pattern, kRpn, nodes); }, 1);
      row.warm_ns = time_ns_per_call(
          [&] { return warm_cost(pattern, kRpn, nodes); }, 16);
      profile_rows.push_back(row);
      std::printf(
          "%-10s p=%5d classes=%4zu/%4zu cold=%11.1f warm=%9.1f ns  "
          "cold/warm=%6.1fx\n",
          row.pattern.c_str(), row.nranks, row.classes, row.steps,
          row.cold_ns, row.warm_ns, row.cold_ns / row.warm_ns);
    }
  }

  csv << "pattern,nranks,pair_messages,oracle_ns_per_call,"
         "profile_cold_ns_per_call,profile_warm_ns_per_call,"
         "speedup_oracle_over_warm\n";
  for (const Row& row : rows)
    csv << row.pattern << ',' << row.nranks << ',' << row.pair_messages << ','
        << row.oracle_ns << ',' << row.profile_cold_ns << ','
        << row.profile_warm_ns << ',' << row.oracle_ns / row.profile_warm_ns
        << '\n';

  profile_csv << "pattern,nranks,classes,steps,profile_cold_ns_per_call,"
                 "profile_warm_ns_per_call,speedup_cold_over_warm\n";
  for (const ProfileRow& row : profile_rows)
    profile_csv << row.pattern << ',' << row.nranks << ',' << row.classes
                << ',' << row.steps << ',' << row.cold_ns << ','
                << row.warm_ns << ',' << row.cold_ns / row.warm_ns << '\n';

  const char* const cold_path =
      "uncached LeafCommProfile path (make_shape_key + "
      "make_leaf_comm_profile + candidate_cost)";
  const char* const warm_path =
      "warm CommCache LeafCommProfile path (make_shape_key + cache hit + "
      "candidate_cost)";
  json << "{\n"
       << "  \"bench\": \"micro_cost\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"machine\": \"theta (12 leaves x 366 nodes)\",\n"
       << "  \"metric\": \"ns per candidate cost\",\n"
       << "  \"before\": \"pair-by-pair Eq. 6 oracle "
          "(tests/support/cost_oracle.hpp)\",\n"
       << "  \"cold\": \"" << cold_path << "\",\n"
       << "  \"after\": \"" << warm_path << "\",\n"
       << "  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"pattern\": \"" << row.pattern
         << "\", \"nranks\": " << row.nranks
         << ", \"pair_messages\": " << row.pair_messages
         << ", \"before_ns\": " << row.oracle_ns
         << ", \"profile_cold_ns\": " << row.profile_cold_ns
         << ", \"profile_warm_ns\": " << row.profile_warm_ns
         << ", \"speedup\": " << row.oracle_ns / row.profile_warm_ns << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"profile_block8\": {\n"
       << "    \"scenario\": \"8 leaves, block-contiguous, 2 ranks/node — "
          "fixed leaf footprint\",\n"
       << "    \"before\": \"" << cold_path << "\",\n"
       << "    \"after\": \"" << warm_path << "\",\n"
       << "    \"cases\": [\n";
  for (std::size_t i = 0; i < profile_rows.size(); ++i) {
    const ProfileRow& row = profile_rows[i];
    json << "      {\"pattern\": \"" << row.pattern
         << "\", \"nranks\": " << row.nranks
         << ", \"classes\": " << row.classes << ", \"steps\": " << row.steps
         << ", \"profile_cold_ns\": " << row.cold_ns
         << ", \"profile_warm_ns\": " << row.warm_ns
         << ", \"speedup\": " << row.cold_ns / row.warm_ns << "}"
         << (i + 1 < profile_rows.size() ? ",\n" : "\n");
  }
  json << "    ]\n  }\n}\n";
  std::cout << "wrote bench_out/micro_cost.csv, bench_out/micro_cost_profile"
               ".csv and BENCH_cost_model.json\n";

  constexpr int kFloorRanks = 4096;
  constexpr double kMaxColdOverWarm = 2.0;
  constexpr double kMaxAlltoallColdOverWarm = 100.0;
  int status = 0;
  for (const ProfileRow& row : profile_rows) {
    if (row.nranks != kFloorRanks) continue;
    const double limit =
        row.pattern == pattern_name(Pattern::kPairwiseAlltoall)
            ? kMaxAlltoallColdOverWarm
            : kMaxColdOverWarm;
    if (row.cold_ns / row.warm_ns > limit) {
      std::cerr << "FAIL: block8 " << row.pattern << " at " << row.nranks
                << " ranks: cold/warm " << row.cold_ns / row.warm_ns
                << " > " << limit << "\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace commsched

int main() { return commsched::run(); }
