// Search-allocator benchmark (DESIGN.md "Delta-cost evaluation & search
// allocators"), two parts:
//
//   delta     microbenchmark of the move-evaluation refactor: on a
//             fragmented 1024-rank candidate, a warm single-leaf-move
//             cost_delta against a warm full candidate_cost through the
//             same LeafCommProfile. The whole point of the delta kernel is
//             to make thousands of anneal proposals affordable, so the
//             ratio must come out >= 10x for the O(log p)-step collectives
//             (RD/RHVD/binomial/ring). Alltoall is reported but not gated:
//             its Eq. 6 sum walks p-1 profile steps, and that O(p) term is
//             shared by both paths — bit-for-bit exactness forbids
//             regrouping the float sum — so the delta's advantage there is
//             bounded by the removed O(classes x pairs) term alone.
//
//   grid      the Figure 6 fragmented-cluster campaign (machines x
//             experiment sets A-E) with the sa policy against its greedy
//             seed: per-cell average Eq. 6 communication cost, improvement
//             percentages, and the count of cells where sa came out worse
//             than greedy (expected 0: sa starts from the better of the
//             greedy/balanced seeds and keeps the best placement seen).
//
// Outputs:
//   bench_out/sa_grid.csv   one row per admitted (machine, set) cell
//   BENCH_sa.json           perf + grid snapshot at the repo root, with the
//                           host CPU model, its core count and the
//                           checkout's commit
//
// Environment knobs (CI smoke caps):
//   COMMSCHED_SA_JOBS     jobs per log for the grid (default COMMSCHED_JOBS)
//   COMMSCHED_SA_BUDGET   anneal proposals per select (default SaOptions)
//
// Run from the repo root: ./build/bench/bench_sa
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/cost_model.hpp"
#include "core/sa_allocator.hpp"
#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "host_info.hpp"
#include "metrics/summary.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/mixes.hpp"

namespace commsched {
namespace {

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto v = parse_int(raw);
  if (!v) {
    std::cerr << name << ": not an integer: '" << raw << "'\n";
    std::exit(1);
  }
  return static_cast<int>(*v);
}

template <typename F>
double time_ns_per_call(F&& call, int min_reps) {
  volatile double sink = call();  // warm up (sizes the scratch)
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

struct DeltaCase {
  std::string pattern;
  int nranks = 0;
  bool gated = true;  ///< counts toward the >=10x criterion (see header)
  double full_ns = 0.0;
  double delta_ns = 0.0;
  double speedup() const { return full_ns / delta_ns; }
};

// A fragmented 1024-rank candidate on a Theta-scale machine (32 leaves x
// 64 nodes): round-robin over 24 of the 32 leaves, mirroring how a loaded
// cluster splinters a large job, with free leaves left for the benchmarked
// reassignment move to target. A single-leaf move then touches 23 of the
// 276 slot pairs — the asymmetry the delta kernel exists to exploit.
std::vector<DeltaCase> run_delta_bench() {
  const Tree tree = make_two_level_tree(32, 64);
  ClusterState state(tree);

  constexpr int kRanks = 1024;
  constexpr std::size_t kSpannedLeaves = 24;
  const auto leaves = tree.leaves();
  std::vector<NodeId> nodes;
  for (std::size_t round = 0; static_cast<int>(nodes.size()) < kRanks;
       ++round)
    for (std::size_t l = 0;
         l < kSpannedLeaves && static_cast<int>(nodes.size()) < kRanks; ++l)
      nodes.push_back(tree.nodes_of_leaf(leaves[l])[round]);

  // ~40% background occupancy on the spanned leaves' remaining nodes, half
  // communication-intensive, so the session base prices a realistic
  // overlay, not an empty machine.
  Rng rng(20200817);
  std::vector<NodeId> comm_nodes, quiet_nodes;
  for (std::size_t l = 0; l < kSpannedLeaves; ++l) {
    const auto attached = tree.nodes_of_leaf(leaves[l]);
    for (std::size_t i = 1 + (kRanks - 1) / kSpannedLeaves;
         i < attached.size(); ++i) {
      const double p = rng.uniform_real(0.0, 1.0);
      if (p < 0.2)
        comm_nodes.push_back(attached[i]);
      else if (p < 0.4)
        quiet_nodes.push_back(attached[i]);
    }
  }
  state.allocate(1, /*comm=*/true, comm_nodes);
  state.allocate(2, /*comm=*/false, quiet_nodes);

  const CostModel model(tree, CostOptions{.hop_bytes = true});
  CommCache cache(double{1 << 20});
  std::vector<DeltaCase> cases;
  for (const Pattern pattern :
       {Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
        Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall}) {
    const ShapeKey key = make_shape_key(tree, nodes);
    const LeafCommProfile& profile = cache.profile(pattern, 1, key);

    CostWorkspace full_ws;
    DeltaCase c;
    c.pattern = pattern_name(pattern);
    c.nranks = kRanks;
    c.gated = pattern != Pattern::kPairwiseAlltoall;
    c.full_ns = time_ns_per_call(
        [&] {
          return model.candidate_cost(state, nodes, true, profile, full_ws);
        },
        4);

    CostWorkspace delta_ws;
    (void)model.delta_begin(state, nodes, true, profile, delta_ws);
    // The anneal's inner loop: price one slot's reassignment to an
    // unoccupied leaf, tentatively (no commit), over and over.
    const SlotMove move{0, leaves[kSpannedLeaves + 2]};
    c.delta_ns = time_ns_per_call(
        [&] {
          return model.cost_delta(state, std::span<const SlotMove>(&move, 1),
                                  delta_ws);
        },
        64);
    cases.push_back(c);
    std::printf("%-10s p=%5d full=%11.1f delta=%9.1f ns  full/delta=%6.1fx\n",
                c.pattern.c_str(), c.nranks, c.full_ns, c.delta_ns,
                c.speedup());
  }
  return cases;
}

struct GridRow {
  std::string machine;
  std::string set;
  double greedy_avg_cost = 0.0;
  double sa_avg_cost = 0.0;
  double greedy_exec_hours = 0.0;
  double sa_exec_hours = 0.0;
  double improvement_pct = 0.0;
};

// nullopt under process sharding, after emitting this shard's slice.
std::optional<std::vector<GridRow>> run_grid(int n_jobs, int budget) {
  exp::CampaignSpec spec;
  spec.name = "sa_grid";
  spec.machines = exp::paper_machines(n_jobs);
  for (const char set : {'A', 'B', 'C', 'D', 'E'})
    spec.mixes.push_back(experiment_set(set));
  spec.allocators = {AllocatorKind::kGreedy, AllocatorKind::kSa};
  spec.variants[0].options.sa.budget = budget;

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  const exp::CampaignSpec& grid = runner.spec();
  if (exp::emit_shard_slice(grid, "SA vs greedy campaign", result,
                            "sa_grid_cells"))
    return std::nullopt;

  std::vector<GridRow> rows;
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
      const RunSummary& greedy = result.at(m, x, 0).summary;
      const RunSummary& sa = result.at(m, x, 1).summary;
      GridRow row;
      row.machine = grid.machines[m].name;
      row.set = std::string(1, static_cast<char>('A' + x));
      row.greedy_avg_cost = greedy.avg_cost;
      row.sa_avg_cost = sa.avg_cost;
      row.greedy_exec_hours = greedy.total_exec_hours;
      row.sa_exec_hours = sa.total_exec_hours;
      row.improvement_pct =
          improvement_percent(greedy.avg_cost, sa.avg_cost);
      rows.push_back(row);
    }
  }
  return rows;
}

int run() {
  // Checked up front, opened only after the grid: a sharded run must leave
  // the committed snapshot untouched.
  if (!std::filesystem::is_directory("bench_out")) {
    std::cerr << "cannot find bench_out/ (run from the repo root)\n";
    return 1;
  }

  const std::vector<DeltaCase> delta = run_delta_bench();
  double min_speedup = 0.0;
  bool first_gated = true;
  for (const DeltaCase& c : delta) {
    if (!c.gated) continue;
    min_speedup = first_gated ? c.speedup()
                              : std::min(min_speedup, c.speedup());
    first_gated = false;
  }

  const int n_jobs = env_int("COMMSCHED_SA_JOBS", 0);
  const int budget = env_int("COMMSCHED_SA_BUDGET", SaOptions{}.budget);
  const std::optional<std::vector<GridRow>> grid = run_grid(n_jobs, budget);
  if (!grid) return 0;
  const std::vector<GridRow>& rows = *grid;
  std::ofstream csv("bench_out/sa_grid.csv");
  std::ofstream json("BENCH_sa.json");
  if (!csv || !json) {
    std::cerr << "cannot open bench_out/sa_grid.csv or BENCH_sa.json (run "
                 "from the repo root)\n";
    return 1;
  }

  int worse = 0;
  for (const GridRow& row : rows)
    if (row.sa_avg_cost > row.greedy_avg_cost) ++worse;

  TextTable table;
  table.set_header({"Log", "Set", "AvgCost(greedy)", "AvgCost(sa)",
                    "Impr%", "Exec(greedy)", "Exec(sa)"});
  csv << "machine,set,greedy_avg_cost,sa_avg_cost,improvement_pct,"
         "greedy_exec_hours,sa_exec_hours\n";
  for (const GridRow& row : rows) {
    table.add_row({row.machine, row.set, cell(row.greedy_avg_cost, 3),
                   cell(row.sa_avg_cost, 3), cell(row.improvement_pct, 2),
                   cell(row.greedy_exec_hours, 0),
                   cell(row.sa_exec_hours, 0)});
    csv << row.machine << ',' << row.set << ',' << row.greedy_avg_cost << ','
        << row.sa_avg_cost << ',' << row.improvement_pct << ','
        << row.greedy_exec_hours << ',' << row.sa_exec_hours << '\n';
  }
  exp::emit("SA vs greedy — average job communication cost, Fig. 6 grid",
            table, "sa_grid");

  json << "{\n"
       << "  \"bench\": \"sa\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"delta\": {\n"
       << "    \"scenario\": \"32x64 tree, 1024-rank candidate striped over "
          "24 leaves, 40% background load\",\n"
       << "    \"before\": \"warm full candidate_cost via LeafCommProfile\",\n"
       << "    \"after\": \"warm single-leaf-move cost_delta (tentative)\",\n"
       << "    \"gate\": \"min speedup over the O(log p)-step collectives; "
          "alltoall's O(p) step sum is shared by both paths (bit-for-bit "
          "exactness forbids regrouping it) and is reported ungated\",\n"
       << "    \"min_speedup\": " << min_speedup << ",\n"
       << "    \"cases\": [\n";
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const DeltaCase& c = delta[i];
    json << "      {\"pattern\": \"" << c.pattern
         << "\", \"nranks\": " << c.nranks
         << ", \"gated\": " << (c.gated ? "true" : "false")
         << ", \"full_ns\": " << c.full_ns << ", \"delta_ns\": " << c.delta_ns
         << ", \"speedup\": " << c.speedup() << "}"
         << (i + 1 < delta.size() ? ",\n" : "\n");
  }
  json << "    ]\n  },\n"
       << "  \"grid\": {\n"
       << "    \"jobs_per_log\": " << (n_jobs > 0 ? n_jobs : exp::jobs_per_log())
       << ",\n"
       << "    \"sa_budget\": " << budget << ",\n"
       << "    \"cells_sa_worse_than_greedy\": " << worse << ",\n"
       << "    \"cells\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GridRow& row = rows[i];
    json << "      {\"machine\": \"" << row.machine << "\", \"set\": \""
         << row.set << "\", \"greedy_avg_cost\": " << row.greedy_avg_cost
         << ", \"sa_avg_cost\": " << row.sa_avg_cost
         << ", \"improvement_pct\": " << row.improvement_pct << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "    ]\n  }\n}\n";

  std::cout << "min delta speedup " << min_speedup << "x; " << worse
            << " cells with sa worse than greedy\n"
            << "wrote bench_out/sa_grid.csv and BENCH_sa.json\n";
  if (min_speedup < 10.0) {
    std::cerr << "FAIL: delta evaluation must be >= 10x cheaper than the "
                 "full recompute on the log-step collectives\n";
    return 1;
  }
  if (worse > 0) {
    std::cerr << "FAIL: sa must match or beat greedy on every cell\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace commsched

int main() { return commsched::run(); }
