// Figure 1 reproduction: two communication-intensive MPI_Allgather jobs
// sharing two leaf switches on the 50-node department cluster.
//
// J1 (8 nodes, 4 per switch) runs its collective burst back-to-back; J2
// (12 nodes, 6 per switch) launches periodically — the paper ran it every
// 30 minutes over 10 hours.  We keep the geometry and the 1 MB message size
// and compress the idle gaps (period 60 s, horizon 600 s) so the run takes
// seconds: the signal is the *ratio* between contended and solo execution
// times, which does not depend on how long J2 sleeps.
//
// Also reproduces the paper's §5.3 validation: the correlation between the
// Eq. 2/3 contention-based cost and the measured execution time (paper:
// 0.83 on their testbed).
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/cost_model.hpp"
#include "exp/emit.hpp"
#include "netsim/sim.hpp"
#include "topology/builders.hpp"
#include "util/stats.hpp"

namespace {

using namespace commsched;

constexpr double kPeriod = 60.0;
constexpr double kHorizon = 600.0;

bool overlaps(const ExecutionSample& a, const ExecutionSample& b) {
  return a.start < b.start + b.duration && b.start < a.start + a.duration;
}

}  // namespace

int main() {
  const Tree tree = make_department_cluster();
  const FlowNetwork net(tree, LinkConfig{});  // 1G everywhere, as at IITK

  // Default-SLURM-style (communication-oblivious) placement: both jobs
  // interleave their ranks across the two switches.
  RepeatingJob j1;
  j1.name = "J1";
  j1.nodes = {0, 16, 1, 17, 2, 18, 3, 19};
  j1.pattern = Pattern::kRecursiveHalvingVD;  // MPI_Allgather's algorithm
  j1.msize = 1 << 20;                         // 1 MB, as in the paper
  j1.rounds = 30;

  RepeatingJob j2;
  j2.name = "J2";
  j2.nodes = {4, 20, 5, 21, 6, 22, 7, 23, 8, 24, 9, 25};
  j2.pattern = Pattern::kRecursiveHalvingVD;
  j2.msize = 1 << 20;
  j2.rounds = 30;
  j2.period = kPeriod;
  j2.first_start = 10.0;

  LinkUsage usage(net);
  const NetSimResult r = simulate_network(net, {j1, j2}, kHorizon, &usage);
  const auto& e1 = r.per_job[0];
  const auto& e2 = r.per_job[1];
  std::cout << "Figure 1: J1 executions: " << e1.size()
            << ", J2 executions: " << e2.size() << "\n";

  // --- Time series (the figure's two curves) -----------------------------
  TextTable series;
  series.set_header({"t_start_s", "job", "exec_time_s"});
  for (const auto& ex : e1)
    series.add_row({cell(ex.start, 2), "J1", cell(ex.duration, 4)});
  for (const auto& ex : e2)
    series.add_row({cell(ex.start, 2), "J2", cell(ex.duration, 4)});
  const std::string path = "bench_out/fig1_contention.csv";
  std::cout << (series.write_csv(path) ? "  [csv] " + path
                                       : "  [csv] write failed")
            << "\n";

  // --- Solo vs contended J1 executions (the spikes) -----------------------
  std::vector<double> solo, contended;
  std::vector<double> predicted, measured;  // for the correlation check
  // Predicted cost via Eq. 6 with and without J2 in the cluster state.
  ClusterState with_j2(tree), without_j2(tree);
  with_j2.allocate(1, true, j1.nodes);
  with_j2.allocate(2, true, j2.nodes);
  without_j2.allocate(1, true, j1.nodes);
  const CostModel model(tree);
  const LeafCommProfile profile = make_leaf_comm_profile(
      j1.pattern, j1.msize, make_shape_key(tree, j1.nodes),
      /*ranks_per_node=*/1);
  CostWorkspace workspace;
  // J1 is already committed in both states, so price it without a
  // candidate overlay.
  const double cost_with = model.candidate_cost(
      with_j2, j1.nodes, /*comm_intensive=*/false, profile, workspace);
  const double cost_without = model.candidate_cost(
      without_j2, j1.nodes, /*comm_intensive=*/false, profile, workspace);

  for (const auto& ex : e1) {
    bool hit = false;
    for (const auto& ex2 : e2) hit = hit || overlaps(ex, ex2);
    (hit ? contended : solo).push_back(ex.duration);
    predicted.push_back(hit ? cost_with : cost_without);
    measured.push_back(ex.duration);
  }

  TextTable summary;
  summary.set_header({"metric", "value"});
  summary.add_row({"J1 solo executions", std::to_string(solo.size())});
  summary.add_row({"J1 contended executions", std::to_string(contended.size())});
  summary.add_row({"J1 solo mean exec (s)", cell(mean(solo), 4)});
  summary.add_row({"J1 contended mean exec (s)", cell(mean(contended), 4)});
  summary.add_row(
      {"spike factor (contended/solo)", cell(mean(contended) / mean(solo), 2)});
  summary.add_row({"Eq.6 cost of J1 (J2 idle)", cell(cost_without, 2)});
  summary.add_row({"Eq.6 cost of J1 (J2 active)", cell(cost_with, 2)});
  const double corr = pearson_correlation(predicted, measured);
  summary.add_row({"corr(contention cost, exec time)", cell(corr, 2)});
  summary.add_row({"paper reference correlation", "0.83"});
  commsched::exp::emit("Figure 1 — inter-job contention on shared switches",
                         summary, "fig1_summary");

  // --- Where the contention lives: the shared leaf uplinks ---------------
  TextTable links;
  links.set_header({"link", "GB carried", "busy fraction"});
  std::vector<std::pair<double, int>> by_busy;
  for (int l = 0; l < net.link_count(); ++l)
    if (usage.busy_time(l) > 0.0) by_busy.emplace_back(-usage.bytes(l), l);
  std::sort(by_busy.begin(), by_busy.end());
  for (std::size_t i = 0; i < std::min<std::size_t>(by_busy.size(), 6); ++i) {
    const int l = by_busy[i].second;
    const std::string name =
        l < tree.node_count()
            ? "access:" + tree.node_name(static_cast<NodeId>(l))
            : "uplink:" + tree.switch_name(
                              static_cast<SwitchId>(l - tree.node_count()));
    links.add_row({name, cell(usage.bytes(l) / 1e9, 2),
                   cell(usage.busy_time(l) / kHorizon, 3)});
  }
  commsched::exp::emit(
      "Figure 1 (diagnosis) — busiest links: the shared switch uplinks",
      links, "fig1_links");

  std::cout << "\nShape check: J1 spikes whenever J2 is active (paper Fig. 1)"
            << " -> " << (mean(contended) > 1.2 * mean(solo) ? "OK" : "WEAK")
            << "\n";
  return 0;
}
