// Golden-file lockdown of the simulated-annealing allocator's output
// (DESIGN.md "Delta-cost evaluation & search allocators"). The exit test's
// reference walk, the engine diff and the allocator contract tests all hold
// sa against something that draws its moves from the same generator, so a
// change to the moves themselves (the swap share, the locality bias, the
// order of the Rng draws) passes them all. This test holds sa to recorded
// values instead: one line per select_into on fuzzed, partly busy states of
// three trees, and one line per job of a simulator replay.
//
// Under COMMSCHED_AUDIT=full the replay also re-checks every accepted delta
// move (verify_stride 1); the output must not change with the audit level.
//
// To regenerate after an *intentional* change of sa's output:
//   COMMSCHED_REGEN_GOLDEN=1 ./core_sa_golden_test
// then review the diff and commit the new golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive_allocator.hpp"
#include "core/allocator_factory.hpp"
#include "core/sa_allocator.hpp"
#include "sched/simulator.hpp"
#include "support/sa_fuzz.hpp"
#include "topology/builders.hpp"
#include "util/file_io.hpp"

namespace commsched {
namespace {

constexpr Pattern kPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// 64-bit FNV-1a over the node ids, each as four little-endian bytes.
std::string node_hash(const std::vector<NodeId>& nodes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const NodeId n : nodes) {
    const auto u = static_cast<std::uint32_t>(n);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Coverage {
  int moved = 0;       // picks that differ from adaptive's seed
  int multi_slot = 0;  // seeds spread over two or more leaves
};

// One line per select: request, node-list hash, both handed-on sums, and
// the anneal's proposal and accept counts.
void select_lines(const char* label, const Tree& tree,
                  const std::vector<std::uint64_t>& seeds, int multi_cap,
                  std::ostringstream& out, Coverage& coverage) {
  JobId job = 7000;
  for (const std::uint64_t seed : seeds) {
    const ClusterState state = sa_fuzz_state(tree, seed);
    for (const int n : sa_request_sizes(state, multi_cap)) {
      for (const Pattern pattern : kPatterns) {
        AllocationRequest request;
        request.job = job++;
        request.num_nodes = n;
        request.comm_intensive = true;
        request.pattern = pattern;
        for (const bool hop_bytes : {false, true}) {
          const CostOptions cost_options{.hop_bytes = hop_bytes};
          const SaAllocator sa(cost_options);
          std::vector<NodeId> nodes;
          ASSERT_TRUE(sa.select_into(state, request, nodes));
          const PricedPlacement* priced = sa.last_priced();
          ASSERT_NE(priced, nullptr);
          if (priced->profile->num_slots >= 2) ++coverage.multi_slot;
          if (nodes != AdaptiveAllocator(cost_options).select(state, request))
            ++coverage.moved;
          out << "select " << label << ' ' << seed << ' ' << n << ' '
              << pattern_name(pattern) << (hop_bytes ? " bytes " : " hops ")
              << node_hash(nodes) << ' ' << hexfloat(priced->costs.hops) << ' '
              << hexfloat(priced->costs.hop_bytes) << ' '
              << sa.last_proposals() << ' ' << sa.last_accepts() << '\n';
        }
      }
    }
  }
}

// One line per job of an sa replay: start, end, and both recorded costs.
void replay_lines(std::ostringstream& out) {
  const Tree tree = make_two_level_tree(8, 16);
  const JobLog log = sa_fuzz_log(tree, 200, 23);
  SchedOptions options;
  options.allocator = AllocatorKind::kSa;
  const SimResult sim = run_continuous(tree, log, options);
  ASSERT_EQ(sim.jobs.size(), log.size());
  for (std::size_t i = 0; i < sim.jobs.size(); ++i) {
    const JobResult& r = sim.jobs[i];
    out << "job " << i << ' ' << hexfloat(r.start_time) << ' '
        << hexfloat(r.end_time) << ' ' << hexfloat(r.cost) << ' '
        << hexfloat(r.cost_default) << '\n';
  }
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Compare against the checked-in golden, or rewrite it in regen mode. On a
// mismatch only the first differing line is reported: the lines after it
// mostly differ in its wake.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(COMMSCHED_SA_GOLDEN_DIR) + "/" + name;
  if (std::getenv("COMMSCHED_REGEN_GOLDEN") != nullptr) {
    write_file_atomic(path, actual);
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f) << "missing golden file " << path
                 << " (run with COMMSCHED_REGEN_GOLDEN=1 to create)";
  const std::string want((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  if (want == actual) return;
  const std::vector<std::string> w = lines_of(want);
  const std::vector<std::string> a = lines_of(actual);
  for (std::size_t i = 0; i < std::max(w.size(), a.size()); ++i) {
    const std::string wl = i < w.size() ? w[i] : "<end of file>";
    const std::string al = i < a.size() ? a[i] : "<end of output>";
    if (wl != al) {
      ADD_FAILURE() << name << " line " << i + 1 << " differs\n  golden: "
                    << wl << "\n  actual: " << al;
      return;
    }
  }
  ADD_FAILURE() << name << " differs in its line endings";
}

TEST(SaGoldenTest, PlacementsMatchTheGolden) {
  std::ostringstream out;
  Coverage coverage;
  select_lines("8x16", make_two_level_tree(8, 16), {1, 2, 3}, 96, out,
               coverage);
  select_lines("3x4x8", make_three_level_tree(3, 4, 8), {4, 5, 6}, 64, out,
               coverage);
  select_lines("theta", make_theta(), {7, 8}, 800, out, coverage);
  replay_lines(out);
  if (HasFatalFailure()) return;
  EXPECT_GT(coverage.moved, 0);
  EXPECT_GT(coverage.multi_slot, 0);
  const std::string text = out.str();
  EXPECT_LT(text.size(), std::size_t{50'000});
  expect_golden("sa_placements.txt", text);
}

}  // namespace
}  // namespace commsched
