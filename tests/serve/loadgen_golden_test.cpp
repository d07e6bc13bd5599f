// Golden-file lockdown of the load generator: the encoded request stream
// (hex image of every wire frame), the open-loop send schedule, and the
// wall-time-stripped reply log for a fixed seed are compared byte for
// byte against files checked into tests/serve/golden/. The reply log is
// additionally replayed through a real daemon — transport, admission and
// the event loop must never leak into replies.
//
// To regenerate after an *intentional* generator or pricing change:
//   COMMSCHED_REGEN_GOLDEN=1 ./serve_loadgen_golden_test
// then review the diff and commit the new goldens.
#include "serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "topology/builders.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace commsched::serve {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(COMMSCHED_SERVE_GOLDEN_DIR) + "/" + name;
}

bool regen() { return std::getenv("COMMSCHED_REGEN_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) ADD_FAILURE() << "missing golden file " << path
                        << " (run with COMMSCHED_REGEN_GOLDEN=1 to create)";
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (regen()) {
    write_file_atomic(path, actual);
    SUCCEED() << "regenerated " << path;
    return;
  }
  EXPECT_EQ(read_file(path), actual) << "golden mismatch for " << name;
}

// Hex dump, 16 bytes per line: reviewable in a diff, still byte-exact.
std::string hex_image(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 3);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.push_back(kDigits[bytes[i] >> 4]);
    out.push_back(kDigits[bytes[i] & 0xf]);
    out.push_back((i + 1) % 16 == 0 ? '\n' : ' ');
  }
  if (!out.empty() && out.back() == ' ') out.back() = '\n';
  return out;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// The pinned scenario: bursty paced traffic with deadlines and an
// explicit allocator byte, on a 32-node machine.
LoadSpec golden_spec() {
  LoadSpec spec;
  spec.seed = 20200817;
  spec.requests = 300;
  spec.max_exp = 4;
  spec.arrival_rate = 5000.0;
  spec.burstiness = 0.6;
  spec.burst_period = 80.0;
  return spec;
}

constexpr int kGoldenLeaves = 4;
constexpr int kGoldenNodesPerLeaf = 8;

TEST(LoadgenGolden, RequestStreamBytesArePinned) {
  const LoadStream stream =
      build_stream(golden_spec(), kGoldenLeaves * kGoldenNodesPerLeaf);
  std::vector<std::uint8_t> bytes;
  encode_stream(stream, bytes);
  expect_golden("loadgen_stream.hex", hex_image(bytes));
}

TEST(LoadgenGolden, SendScheduleIsPinned) {
  const LoadStream stream =
      build_stream(golden_spec(), kGoldenLeaves * kGoldenNodesPerLeaf);
  std::vector<std::string> lines;
  lines.reserve(stream.send_time.size());
  for (const double t : stream.send_time) lines.push_back(json_number(t));
  expect_golden("loadgen_schedule.txt", joined(lines));
}

TEST(LoadgenGolden, ReplyLogIsPinned) {
  const Tree tree = make_two_level_tree(kGoldenLeaves, kGoldenNodesPerLeaf);
  const LoadStream stream = build_stream(golden_spec(), tree.node_count());
  expect_golden("loadgen_replies.log",
                joined(reference_log(stream, tree, ServiceOptions{})));
}

TEST(LoadgenGolden, DaemonReplayMatchesGolden) {
  // The same stream through a real daemon — replies must equal the
  // checked-in golden log. (In regen mode the reference test above
  // rewrites the golden; this test then still cross-checks the daemon
  // against the fresh oracle.)
  const Tree tree = make_two_level_tree(kGoldenLeaves, kGoldenNodesPerLeaf);
  const LoadStream stream = build_stream(golden_spec(), tree.node_count());
  const std::string expected =
      regen() ? joined(reference_log(stream, tree, ServiceOptions{}))
              : read_file(golden_path("loadgen_replies.log"));

  ServerOptions server_options;
  server_options.socket_path = std::string(::testing::TempDir()) +
                               "/commsched_golden_" +
                               std::to_string(::getpid()) + ".sock";
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();
  ReplayOptions replay_options;
  replay_options.collect_log = true;
  const ReplayResult result = replay(client, stream, replay_options);
  ASSERT_TRUE(result.complete) << client.error();
  EXPECT_EQ(joined(result.log), expected);
  client.close();
  server.drain();
}

}  // namespace
}  // namespace commsched::serve
