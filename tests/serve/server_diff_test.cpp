// Differential test pinning the daemon determinism contract: every reply
// that comes back over the socket is bit-identical to what an inline
// AllocatorService (and therefore an inline Allocator::select() +
// CostModel::candidate_cost(), see service_test.cpp) produces for the
// same request stream — across allocators (including sa). Costs are
// compared through their shortest-round-trip decimal rendering
// (json_number), which is exact for doubles, and node sets rank by rank —
// a canonical log line per stream position, diffed byte for byte.
//
// This is also the server path's TSan leg: the loop thread serving a
// client thread, admission control and the drain hand-off all run under
// the sanitizer matrix here.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/allocator_factory.hpp"
#include "serve/loadgen.hpp"
#include "topology/builders.hpp"

namespace commsched::serve {
namespace {

std::string unique_socket(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/commsched_diff_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Replay `stream` against an in-process server and return the canonical
// reply log.
std::vector<std::string> daemon_log(const Tree& tree,
                                    const ServiceOptions& service_options,
                                    const LoadStream& stream,
                                    const std::string& tag) {
  ServerOptions server_options;
  server_options.socket_path = unique_socket(tag);
  Server server(tree, service_options, server_options);
  EXPECT_TRUE(server.start()) << server.error();
  Client client;
  EXPECT_TRUE(client.connect(server_options.socket_path)) << client.error();
  ReplayOptions replay_options;
  replay_options.collect_log = true;
  const ReplayResult result = replay(client, stream, replay_options);
  EXPECT_TRUE(result.complete)
      << tag << ": " << result.io_errors << " io errors, " << client.error();
  EXPECT_EQ(result.rejected, 0u) << tag;
  EXPECT_EQ(result.timeouts, 0u) << tag;
  client.close();
  server.drain();
  return result.log;
}

void expect_logs_equal(const std::vector<std::string>& daemon,
                       const std::vector<std::string>& inline_ref,
                       const std::string& tag) {
  ASSERT_EQ(daemon.size(), inline_ref.size()) << tag;
  for (std::size_t i = 0; i < daemon.size(); ++i)
    ASSERT_EQ(daemon[i], inline_ref[i]) << tag << " diverges at stream "
                                        << "position " << i;
}

class ServerDiffTest : public ::testing::TestWithParam<AllocatorKind> {};

TEST_P(ServerDiffTest, DaemonMatchesInline) {
  const AllocatorKind kind = GetParam();
  const Tree tree = make_two_level_tree(8, 8);  // 64 nodes

  ServiceOptions service_options;
  service_options.audit = AuditLevel::kCheap;
  service_options.sa.budget = 32;  // keep sa affordable under sanitizers

  LoadSpec spec;
  spec.requests = kind == AllocatorKind::kSa ? 600 : 2000;
  spec.allocator = static_cast<std::uint8_t>(kind);
  const LoadStream stream = build_stream(spec, tree.node_count());

  const std::string tag = allocator_kind_name(kind);
  expect_logs_equal(daemon_log(tree, service_options, stream, tag),
                    reference_log(stream, tree, service_options), tag);
}

INSTANTIATE_TEST_SUITE_P(
    Allocators, ServerDiffTest,
    ::testing::Values(AllocatorKind::kDefault, AllocatorKind::kAdaptive,
                      AllocatorKind::kSa),
    [](const ::testing::TestParamInfo<AllocatorKind>& param_info) {
      return std::string(allocator_kind_name(param_info.param));
    });

TEST(ServerDiff, ServerDefaultPolicyMatchesInline) {
  // allocator byte 0xff routes to the server's configured default.
  const Tree tree = make_two_level_tree(4, 8);
  ServiceOptions service_options;
  service_options.default_allocator = AllocatorKind::kBalanced;
  service_options.audit = AuditLevel::kCheap;
  LoadSpec spec;
  spec.requests = 500;  // allocator stays kServerAllocator
  const LoadStream stream = build_stream(spec, tree.node_count());
  expect_logs_equal(
      daemon_log(tree, service_options, stream, "default-policy"),
      reference_log(stream, tree, service_options), "default-policy");
}

TEST(ServerDiff, ConcurrentConnectionsStayPerStreamDeterministic) {
  // Two clients with disjoint job/req-id spaces replaying concurrently:
  // each stream's log must match its own single-client run. (Cross-stream
  // interleaving on the shared ClusterState is allowed to differ — the
  // contract is per connection — so each client gets its own half of the
  // machine via job sizes that always fit.)
  const Tree tree = make_two_level_tree(8, 8);
  ServiceOptions service_options;
  ServerOptions server_options;
  server_options.socket_path = unique_socket("multi");
  Server server(tree, service_options, server_options);
  ASSERT_TRUE(server.start()) << server.error();

  // Single-connection streams must replay identically under a concurrent
  // sibling issuing only queries (queries never mutate cluster state).
  LoadSpec spec;
  spec.requests = 800;
  const LoadStream stream = build_stream(spec, tree.node_count());
  const std::vector<std::string> solo_ref =
      reference_log(stream, tree, service_options);

  Client noisy;
  ASSERT_TRUE(noisy.connect(server_options.socket_path)) << noisy.error();
  LoadStream queries;
  for (std::uint64_t i = 0; i < 200; ++i) {
    Request q;
    q.type = MsgType::kQuery;
    q.req_id = 1000000 + i;
    queries.requests.push_back(q);
  }
  queries.send_time.assign(queries.requests.size(), 0.0);

  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();
  ReplayOptions replay_options;
  replay_options.collect_log = true;

  // Interleave: fire the query stream, then the real stream, then drain
  // both. The query client's replies are position-independent reads.
  const ReplayResult noise = replay(noisy, queries, ReplayOptions{});
  const ReplayResult result = replay(client, stream, replay_options);
  EXPECT_TRUE(noise.complete);
  ASSERT_TRUE(result.complete) << client.error();
  expect_logs_equal(result.log, solo_ref, "with-query-noise");
  client.close();
  noisy.close();
  server.drain();
}

}  // namespace
}  // namespace commsched::serve
