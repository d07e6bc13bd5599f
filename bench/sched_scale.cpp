// Event-loop scaling bench: jobs/sec of the simulator core vs log size,
// 10^3 -> 10^6 jobs, per allocator x backfill on/off (DESIGN.md
// "Million-job event loop").
//
// Each cell replays an undecorated synthetic log (comm_percent = 0, so no
// pricing — this measures the scheduler core, not the cost model) through
// SimEngine::kFast; the same log also runs through SimEngine::kReference
//   - at every size up to 10^4 for a full bit-identity check of the two
//     engines across all cells, and
//   - at the largest size <= 10^5 for the fast/reference speedup figure
//     (the reference loop's per-event queue sort makes 10^6 impractical,
//     which is the point of the rebuild).
//
// Environment knobs (both used by the CI smoke leg):
//   COMMSCHED_SCHED_SCALE_JOBS_MAX   cap the largest log size (default 10^6)
//   COMMSCHED_SCHED_SCALE_FLOOR     minimum fast-engine jobs/sec across all
//                                    cells; below it the bench exits 1
//
// The JSON records the host CPU model, its core count and the commit of
// the checkout (`git describe --always --dirty`), so a snapshot says which
// machine and code it measured.
//
// Exits nonzero on any engine divergence or floor violation. Writes
// BENCH_sched_scale.json at the cwd (run from the repo root).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator_factory.hpp"
#include "host_info.hpp"
#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/synthetic.hpp"

namespace commsched {
namespace {

bool results_identical(const SimResult& a, const SimResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan != b.makespan)
    return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobResult& x = a.jobs[i];
    const JobResult& y = b.jobs[i];
    if (x.id != y.id || x.num_nodes != y.num_nodes ||
        x.comm_intensive != y.comm_intensive || x.pattern != y.pattern ||
        x.submit_time != y.submit_time || x.start_time != y.start_time ||
        x.end_time != y.end_time ||
        x.original_runtime != y.original_runtime ||
        x.actual_runtime != y.actual_runtime || x.cost != y.cost ||
        x.cost_default != y.cost_default || x.io_cost != y.io_cost ||
        x.io_cost_default != y.io_cost_default ||
        x.hit_walltime != y.hit_walltime)
      return false;
  }
  return true;
}

struct Cell {
  int jobs = 0;
  std::string allocator;
  std::string policy;
  bool backfill = true;
  double fast_seconds = 0.0;
  double fast_jobs_per_sec = 0.0;
  double ref_seconds = 0.0;  ///< 0 when the reference engine was not timed
  double speedup = 0.0;      ///< 0 when the reference engine was not timed
  int identical = -1;        ///< 1/0 checked, -1 not checked at this size
};

long long env_int(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoll(v);
}

int run() {
  std::ofstream json("BENCH_sched_scale.json");
  if (!json) {
    std::cerr << "cannot open BENCH_sched_scale.json (run from the repo "
                 "root)\n";
    return 1;
  }

  const long long jobs_max =
      env_int("COMMSCHED_SCHED_SCALE_JOBS_MAX", 1'000'000);
  const long long floor_jps = env_int("COMMSCHED_SCHED_SCALE_FLOOR", 0);

  // 512 nodes: big enough that allocators have real placement freedom,
  // small enough that a million-job replay stays minutes, not hours. The
  // Theta profile shrunk onto it keeps the paper's job-size mix including
  // its backlogged 1.35 offered load, so the pending queue deepens with the
  // log — the regime (real backlogged archives) the indexed engine exists
  // for, and the one where the reference loop's O(queue) per-event work
  // blows up.
  const Tree tree = make_two_level_tree(/*leaves=*/16, /*nodes_per_leaf=*/32);
  const LogProfile profile =
      scale_profile(theta_profile(), tree.node_count());

  std::vector<int> sizes;
  for (const int n : {1'000, 10'000, 100'000, 1'000'000})
    if (n <= jobs_max) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(static_cast<int>(jobs_max));
  const int identity_max = 10'000;     // full matrix diffed up to here
  int speedup_size = sizes.front();    // largest size the reference runs at
  for (const int n : sizes)
    if (n <= 100'000) speedup_size = n;

  // The grid: every allocator x backfill under FIFO (the paper's policy),
  // plus the sorted queue policies for the default allocator. FIFO never
  // re-sorts the pending queue, so there the seed loop's per-event cost is
  // already flat and the two engines track each other; the sorted policies
  // are where the reference loop's full-queue stable_sort per event turns
  // a backlogged replay quadratic, and where the indexed engine's O(log n)
  // pending structure shows its headline speedup.
  struct Config {
    AllocatorKind kind;
    bool backfill;
    QueuePolicy policy;
  };
  std::vector<Config> grid;
  for (const AllocatorKind kind : kAllAllocatorKinds)
    for (const bool backfill : {true, false})
      grid.push_back({kind, backfill, QueuePolicy::kFifo});
  grid.push_back(
      {AllocatorKind::kDefault, true, QueuePolicy::kShortestJobFirst});
  grid.push_back(
      {AllocatorKind::kDefault, true, QueuePolicy::kSmallestJobFirst});
  const auto policy_name = [](QueuePolicy p) {
    return p == QueuePolicy::kFifo ? "fifo"
           : p == QueuePolicy::kShortestJobFirst ? "sjf"
                                                 : "smallest";
  };

  bool diverged = false;
  double min_jps = -1.0;
  std::vector<Cell> cells;
  for (const int n : sizes) {
    const JobLog log = generate_log(profile, n, /*seed=*/20200817);
    for (const Config& config : grid) {
      SchedOptions options;
      options.allocator = config.kind;
      options.easy_backfill = config.backfill;
      options.queue_policy = config.policy;
      options.audit = AuditLevel::kOff;  // measure the loop, not checks

      Cell cell;
      cell.jobs = n;
      cell.allocator = allocator_kind_name(config.kind);
      cell.policy = policy_name(config.policy);
      cell.backfill = config.backfill;

      options.engine = SimEngine::kFast;
      const auto t0 = std::chrono::steady_clock::now();
      const SimResult fast = run_continuous(tree, log, options);
      cell.fast_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      cell.fast_jobs_per_sec = n / cell.fast_seconds;
      if (min_jps < 0.0 || cell.fast_jobs_per_sec < min_jps)
        min_jps = cell.fast_jobs_per_sec;

      // The reference engine runs where it is affordable: everywhere the
      // identity check applies, plus the default-allocator cells at the
      // speedup size (one FIFO, one per sorted policy — the honest and the
      // headline comparison respectively).
      const bool check_identity = n <= identity_max;
      const bool time_reference =
          check_identity ||
          (n == speedup_size && config.kind == AllocatorKind::kDefault &&
           config.backfill);
      if (time_reference) {
        options.engine = SimEngine::kReference;
        const auto r0 = std::chrono::steady_clock::now();
        const SimResult ref = run_continuous(tree, log, options);
        cell.ref_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - r0)
                               .count();
        cell.speedup = cell.ref_seconds / cell.fast_seconds;
        cell.identical = results_identical(fast, ref) ? 1 : 0;
        if (cell.identical == 0) {
          diverged = true;
          std::cerr << "ENGINE DIVERGENCE: " << n << " jobs, "
                    << cell.allocator << ", " << cell.policy << ", backfill "
                    << config.backfill << "\n";
        }
      }
      cells.push_back(cell);
      std::printf(
          "%8d jobs  %-9s %-8s backfill=%d  fast %9.0f jobs/s (%8.3f s)%s\n",
          n, cell.allocator.c_str(), cell.policy.c_str(),
          config.backfill ? 1 : 0, cell.fast_jobs_per_sec, cell.fast_seconds,
          cell.ref_seconds > 0.0
              ? ("  ref " + std::to_string(cell.ref_seconds) +
                 " s  speedup " + std::to_string(cell.speedup) + "x")
                    .c_str()
              : "");
    }
  }

  json << "{\n"
       << "  \"bench\": \"sched_scale\",\n"
       << "  \"machine\": \"two-level tree, 16 leaves x 32 nodes\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"workload\": \"Theta profile scaled to 512 nodes, load 0.95, "
          "undecorated (no pricing)\",\n"
       << "  \"metric\": \"jobs per second through run_continuous\",\n"
       << "  \"before\": \"SimEngine::kReference (per-event queue sort)\",\n"
       << "  \"after\": \"SimEngine::kFast (indexed pending queue + "
          "incremental reservation)\",\n"
       << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"jobs\": " << c.jobs << ", \"allocator\": \""
         << c.allocator << "\", \"policy\": \"" << c.policy
         << "\", \"backfill\": " << (c.backfill ? "true" : "false")
         << ", \"fast_jobs_per_sec\": " << c.fast_jobs_per_sec
         << ", \"fast_seconds\": " << c.fast_seconds;
    if (c.ref_seconds > 0.0)
      json << ", \"ref_seconds\": " << c.ref_seconds
           << ", \"speedup\": " << c.speedup;
    if (c.identical >= 0)
      json << ", \"identical\": " << (c.identical == 1 ? "true" : "false");
    json << "}" << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_sched_scale.json\n";

  if (diverged) {
    std::cerr << "FAIL: engines diverged\n";
    return 1;
  }
  if (floor_jps > 0 && min_jps < static_cast<double>(floor_jps)) {
    std::cerr << "FAIL: slowest cell " << min_jps << " jobs/s is below the "
              << "COMMSCHED_SCHED_SCALE_FLOOR of " << floor_jps << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace commsched

int main() { return commsched::run(); }
