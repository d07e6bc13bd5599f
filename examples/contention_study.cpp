// The paper's §1 motivating experiment (Figure 1), runnable on the flow-level
// network simulator: J1 (8 nodes, two switches) executes MPI_Allgather
// bursts continuously while J2 (12 nodes, same two switches) fires
// periodically. Prints a text "plot" of J1's execution time so the spikes
// are visible in a terminal.
//
//   $ ./contention_study [period_s] [horizon_s]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "netsim/sim.hpp"
#include "topology/builders.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace commsched;

namespace {

double seconds_arg(const char* name, const char* value) {
  const auto v = parse_double(value);
  if (!v || !(*v > 0.0)) {
    std::cerr << "error: " << name << " must be a positive number of "
              << "seconds, got '" << value << "'\n"
              << "usage: contention_study [period_s] [horizon_s]\n";
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  double period = 60.0, horizon = 600.0;
  if (argc > 1) period = seconds_arg("period_s", argv[1]);
  if (argc > 2) horizon = seconds_arg("horizon_s", argv[2]);

  const Tree tree = make_department_cluster();
  const FlowNetwork net(tree, LinkConfig{});

  RepeatingJob j1;
  j1.name = "J1";
  j1.nodes = {0, 16, 1, 17, 2, 18, 3, 19};  // 4+4, interleaved ranks
  j1.pattern = Pattern::kRecursiveHalvingVD;
  j1.msize = 1 << 20;
  j1.rounds = 30;

  RepeatingJob j2 = j1;
  j2.name = "J2";
  j2.nodes = {4, 20, 5, 21, 6, 22, 7, 23, 8, 24, 9, 25};  // 6+6
  j2.rounds = 30;
  j2.period = period;
  j2.first_start = period / 4.0;

  std::cout << "Simulating " << horizon << " s: J1 runs back-to-back, J2 every "
            << period << " s ...\n\n";
  const NetSimResult r = simulate_network(net, {j1, j2}, horizon);
  const auto& e1 = r.per_job[0];
  if (e1.empty()) {
    std::cerr << "no executions completed — increase the horizon\n";
    return 1;
  }

  double max_d = 0.0;
  for (const auto& ex : e1) max_d = std::max(max_d, ex.duration);

  std::cout << "J1 execution time over simulated time (* = J2 active):\n";
  for (const auto& ex : e1) {
    bool contended = false;
    for (const auto& ex2 : r.per_job[1])
      contended = contended || (ex.start < ex2.start + ex2.duration &&
                                ex2.start < ex.start + ex.duration);
    const int bar = static_cast<int>(50.0 * ex.duration / max_d);
    std::cout << "  t=" << format_double(ex.start, 1) << "s  "
              << format_double(ex.duration, 3) << "s |"
              << std::string(static_cast<std::size_t>(bar), '#')
              << (contended ? "  *" : "") << "\n";
  }

  std::vector<double> solo, contended;
  for (const auto& ex : e1) {
    bool hit = false;
    for (const auto& ex2 : r.per_job[1])
      hit = hit || (ex.start < ex2.start + ex2.duration &&
                    ex2.start < ex.start + ex.duration);
    (hit ? contended : solo).push_back(ex.duration);
  }
  std::cout << "\nJ1 mean execution: solo " << format_double(mean(solo), 3)
            << " s, while J2 active " << format_double(mean(contended), 3)
            << " s (" << format_double(mean(contended) / mean(solo), 2)
            << "x)\n"
            << "This is the paper's Figure 1 effect: sharing switches with "
               "another\ncommunication-intensive job stretches the collective.\n";
  return 0;
}
