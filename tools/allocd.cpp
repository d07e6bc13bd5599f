// allocd — the allocator-as-a-service daemon (DESIGN.md "Allocator
// service").
//
// Serves allocation/release/query requests over a unix stream socket,
// fronting one AllocatorService (immutable topology, one ClusterState,
// warm CommCache, every registered policy including sa) with the
// single-threaded event-loop server in src/serve. Configuration comes from
// the same slurm.conf the simulator reads: JobAware / SelectTypeParameters
// pick the default policy, AllocdParameters carries the daemon knobs.
//
// Usage:
//   allocd --socket <path> [--conf <slurm.conf>] [--leaves N]
//          [--nodes-per-leaf M] [--queue N]
//
// `--threads N` (N >= 0) is accepted and ignored, so existing command
// lines keep working (perfbench/serve.cpp passes `--threads 1`): the
// daemon serves from one loop thread whatever the count.
//
// The daemon builds a two-level tree (N leaf switches x M nodes), prints
// one "listening" line, and runs until a client sends kDrain (graceful:
// already-admitted requests are served before exit) or it is killed.
// Restarting with the same arguments reproduces the same service state
// machine — re-sent idempotent request ids get identical answers
// (tests/serve/daemon_kill_test.cpp).
//
// Exit status: 0 after a graceful drain, 1 on setup failure or when the
// event loop stopped on an error.
#include <exception>
#include <iostream>
#include <string>

#include "serve/server.hpp"
#include "slurm/conf.hpp"
#include "topology/builders.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
  std::cerr << "usage: allocd --socket <path> [--conf <slurm.conf>] "
               "[--leaves N] [--nodes-per-leaf M] [--queue N]\n";
  return 1;
}

int run(int argc, char** argv) {
  std::string socket_path;
  std::string conf_path;
  int leaves = 8;
  int nodes_per_leaf = 16;
  int queue_depth = -1;  // -1 = take from conf
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--socket" && (value = next()) != nullptr) {
      socket_path = value;
    } else if (arg == "--conf" && (value = next()) != nullptr) {
      conf_path = value;
    } else if (arg == "--leaves" && (value = next()) != nullptr) {
      const auto v = commsched::parse_int_at_least(value, 1);
      if (!v) return usage();
      leaves = *v;
    } else if (arg == "--nodes-per-leaf" && (value = next()) != nullptr) {
      const auto v = commsched::parse_int_at_least(value, 1);
      if (!v) return usage();
      nodes_per_leaf = *v;
    } else if (arg == "--threads" && (value = next()) != nullptr) {
      const auto v = commsched::parse_int(value);
      if (!v || *v < 0) return usage();  // checked, then ignored
    } else if (arg == "--queue" && (value = next()) != nullptr) {
      const auto v = commsched::parse_int_at_least(value, 1);
      if (!v) return usage();
      queue_depth = *v;
    } else {
      return usage();
    }
  }

  commsched::SlurmConf conf;
  if (!conf_path.empty()) conf = commsched::load_slurm_conf(conf_path);
  if (socket_path.empty()) socket_path = conf.serve.socket_path;
  if (socket_path.empty()) {
    std::cerr << "allocd: no socket path (--socket or "
                 "AllocdParameters=socket=...)\n";
    return 1;
  }

  const commsched::Tree tree =
      commsched::make_two_level_tree(leaves, nodes_per_leaf);

  commsched::serve::ServiceOptions service_options;
  service_options.default_allocator = conf.sched.allocator;
  service_options.cost_options = conf.sched.cost_options;
  service_options.sa = conf.sched.sa;

  commsched::serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.queue_depth = static_cast<std::size_t>(
      queue_depth >= 1 ? queue_depth : conf.serve.queue_depth);
  server_options.default_deadline_ms =
      static_cast<std::uint32_t>(conf.serve.default_deadline_ms);
  server_options.idle_timeout_ms =
      static_cast<std::uint32_t>(conf.serve.idle_timeout_ms);
  server_options.write_timeout_ms =
      static_cast<std::uint32_t>(conf.serve.write_timeout_ms);

  commsched::serve::Server server(tree, service_options, server_options);
  if (!server.start()) {
    std::cerr << "allocd: " << server.error() << "\n";
    return 1;
  }
  std::cout << "allocd: listening on " << socket_path << " ("
            << tree.node_count() << " nodes, default policy "
            << commsched::allocator_kind_name(conf.sched.allocator) << ")"
            << std::endl;
  server.wait_drain_requested();
  server.drain();
  if (!server.error().empty()) {
    std::cerr << "allocd: " << server.error() << "\n";
    return 1;
  }
  const commsched::serve::ServerStats stats = server.stats();
  std::cout << "allocd: drained after " << stats.frames_in << " frames ("
            << stats.rejected << " rejected, " << stats.timeouts
            << " timed out)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "allocd: " << e.what() << "\n";
    return 1;
  }
}
