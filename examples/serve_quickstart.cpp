// serve_quickstart — the allocator service end to end in one process.
//
// Starts the event-loop server on a unix socket, connects the blocking
// client, allocates three jobs (default policy, then an explicit sa
// request), queries the counters, releases everything, and drains.
// Demonstrates the select-plugin-shaped API: opaque job descriptor in,
// ordered node set + Eq. 6 cost out, idempotent request ids throughout
// (the duplicate alloc below returns the first answer, not a double
// allocation).
//
// Build & run:
//   cmake --build build --target serve_quickstart
//   ./build/examples/serve_quickstart
#include <iostream>
#include <string>
#include <unistd.h>

#include "core/allocator_factory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "topology/builders.hpp"

int main() {
  using namespace commsched;

  const Tree tree = make_two_level_tree(4, 8);  // 32 nodes, 4 leaves

  serve::ServiceOptions service_options;  // adaptive policy by default
  serve::ServerOptions server_options;
  server_options.socket_path =
      "/tmp/commsched_serve_quickstart_" + std::to_string(::getpid()) +
      ".sock";
  serve::Server server(tree, service_options, server_options);
  if (!server.start()) {
    std::cerr << "server: " << server.error() << "\n";
    return 1;
  }
  std::cout << "serving " << tree.node_count() << " nodes on "
            << server_options.socket_path << "\n";

  serve::Client client;
  if (!client.connect(server_options.socket_path)) {
    std::cerr << "client: " << client.error() << "\n";
    return 1;
  }

  const auto show = [](const serve::Reply& reply) {
    std::cout << "  req " << reply.req_id << " -> "
              << serve_status_name(reply.status);
    if (reply.type == serve::MsgType::kAllocReply &&
        reply.status == serve::ServeStatus::kOk) {
      std::cout << " cost=" << reply.cost << " nodes=[";
      for (std::size_t i = 0; i < reply.nodes.size(); ++i)
        std::cout << (i ? "," : "") << reply.nodes[i];
      std::cout << "]";
    }
    std::cout << "\n";
  };

  serve::Request request;
  serve::Reply reply;

  // Job 1: an 8-node allreduce job under the server's default policy.
  request.req_id = 1;
  request.job = 1;
  request.num_nodes = 8;
  request.comm_intensive = true;
  request.pattern = Pattern::kRecursiveDoubling;
  if (!client.call(request, reply)) return 1;
  show(reply);

  // Job 2: the same descriptor, explicitly through simulated annealing.
  request.req_id = 2;
  request.job = 2;
  request.allocator = static_cast<std::uint8_t>(AllocatorKind::kSa);
  if (!client.call(request, reply)) return 1;
  show(reply);

  // Re-send request 1 (pretend the connection dropped before the reply):
  // the idempotency window returns the original answer.
  request.req_id = 1;
  request.job = 1;
  request.allocator = serve::kServerAllocator;
  if (!client.call(request, reply)) return 1;
  show(reply);

  request = serve::Request{};
  request.type = serve::MsgType::kQuery;
  request.req_id = 3;
  if (!client.call(request, reply)) return 1;
  std::cout << "  query: " << reply.running_jobs << " jobs, "
            << reply.free_nodes << "/" << reply.total_nodes
            << " nodes free, " << reply.idempotent_hits
            << " idempotent hit(s)\n";

  for (std::int64_t job = 1; job <= 2; ++job) {
    request = serve::Request{};
    request.type = serve::MsgType::kRelease;
    request.req_id = 10 + static_cast<std::uint64_t>(job);
    request.job = job;
    if (!client.call(request, reply)) return 1;
    show(reply);
  }

  request = serve::Request{};
  request.type = serve::MsgType::kDrain;
  request.req_id = 99;
  if (!client.call(request, reply)) return 1;
  std::cout << "  drain acknowledged\n";
  client.close();
  server.wait_drain_requested();
  server.drain();
  return 0;
}
