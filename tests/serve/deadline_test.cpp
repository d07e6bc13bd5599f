// Deadlines, admission control, slow-client backpressure and malformed
// frames: an expired request gets kTimeout without touching allocator
// state; admission-queue overflow is answered kRejected with exact
// accounting; a client that stalls mid-frame or stops reading replies is
// dropped without wedging the loop; a bad frame is answered and, when the
// stream cannot resynchronize, closed without touching other clients.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/allocator_factory.hpp"
#include "serve/client.hpp"
#include "topology/builders.hpp"

namespace commsched::serve {
namespace {

std::string unique_socket(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/commsched_dl_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

Request alloc_request(std::uint64_t req_id, std::int64_t job, int nodes) {
  Request req;
  req.type = MsgType::kAlloc;
  req.req_id = req_id;
  req.job = job;
  req.num_nodes = nodes;
  req.comm_intensive = true;
  return req;
}

// Poll `predicate` until true or ~5 s elapsed.
bool eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

int raw_connect(const std::string& path, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Everything the server sends on `fd` until it closes the stream; false if
// it is still open after 5 s.
bool read_until_closed(int fd, std::vector<std::uint8_t>& bytes) {
  pollfd p{fd, POLLIN, 0};
  std::uint8_t chunk[512];
  while (::poll(&p, 1, 5000) > 0) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return n == 0;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  return false;
}

TEST(Deadline, ExpiredRequestTimesOutWithoutStateMutation) {
  const Tree tree = make_two_level_tree(4, 8);
  std::atomic<bool> hold{true};
  ServerOptions server_options;
  server_options.socket_path = unique_socket("timeout");
  server_options.test_hold = [&hold] { return hold.load(); };
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();

  Request req = alloc_request(1, 1, 4);
  req.deadline_ms = 1;  // expires while the loop holds it
  ASSERT_TRUE(client.send_request(req)) << client.error();
  ASSERT_TRUE(eventually([&] { return server.stats().frames_in == 1; }));
  // Admitted (its deadline is set); let that 1 ms run out, then serve.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hold.store(false);
  Reply reply;
  ASSERT_TRUE(client.recv_reply(reply, 5000)) << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kTimeout);
  EXPECT_EQ(server.stats().timeouts, 1u);

  // The timed-out request never touched the cluster and was never cached:
  // the retried id gets a real allocation.
  req.deadline_ms = 0;
  ASSERT_TRUE(client.call(req, reply, 5000)) << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kOk);
  EXPECT_EQ(reply.nodes.size(), 4u);
  client.close();
  server.drain();
  EXPECT_EQ(server.service().state().job_count(), 1u);
}

TEST(Deadline, SlowSaRequestExpiresQueuedSuccessor) {
  // An sa request sits at the head of the queue while a 1 ms deadline on
  // the request queued behind it runs out; the successor must expire
  // before service — answered kTimeout after the sa reply, never a hung
  // loop, never a state mutation. Holding both admitted requests past
  // that 1 ms makes the head-of-line blocking deterministic on any
  // machine, however fast the sa search runs.
  const Tree tree = make_two_level_tree(8, 16);  // 128 nodes
  ServiceOptions service_options;
  service_options.default_allocator = AllocatorKind::kSa;
  service_options.sa.budget = 50000;
  std::atomic<bool> hold{true};
  ServerOptions server_options;
  server_options.socket_path = unique_socket("sa");
  server_options.test_hold = [&hold] { return hold.load(); };
  Server server(tree, service_options, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();

  Request slow_req = alloc_request(1, 1, 64);
  ASSERT_TRUE(client.send_request(slow_req));
  Request fast_req = alloc_request(2, 2, 4);
  fast_req.deadline_ms = 1;
  ASSERT_TRUE(client.send_request(fast_req));
  ASSERT_TRUE(eventually([&] { return server.stats().frames_in == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hold.store(false);

  Reply first, second;
  ASSERT_TRUE(client.recv_reply(first, 30000)) << client.error();
  ASSERT_TRUE(client.recv_reply(second, 30000)) << client.error();
  EXPECT_EQ(first.req_id, 1u);
  EXPECT_EQ(first.status, ServeStatus::kOk);
  EXPECT_EQ(second.req_id, 2u);
  EXPECT_EQ(second.status, ServeStatus::kTimeout);
  client.close();
  server.drain();
  EXPECT_EQ(server.service().state().job_count(), 1u)
      << "the timed-out alloc must not have mutated the cluster";
}

TEST(Admission, OverflowRejectionAccountingIsExact) {
  const Tree tree = make_two_level_tree(4, 8);
  std::atomic<bool> gate_open{false};
  ServerOptions server_options;
  server_options.socket_path = unique_socket("reject");
  server_options.queue_depth = 4;
  server_options.test_hold = [&gate_open] { return !gate_open.load(); };
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();

  constexpr int kTotal = 32;
  for (int i = 0; i < kTotal; ++i)
    ASSERT_TRUE(client.send_request(
        alloc_request(static_cast<std::uint64_t>(i + 1), i + 1, 1)));

  // With service held, exactly queue_depth requests are admitted; every
  // later arrival is rejected as soon as it is decoded.
  ASSERT_TRUE(eventually([&] { return server.stats().frames_in == kTotal; }));
  EXPECT_EQ(server.stats().rejected,
            static_cast<std::uint64_t>(kTotal) - 4);

  gate_open.store(true);

  int ok = 0, rejected = 0, other = 0;
  Reply reply;
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(client.recv_reply(reply, 10000)) << client.error();
    if (reply.status == ServeStatus::kOk) ++ok;
    else if (reply.status == ServeStatus::kRejected) ++rejected;
    else ++other;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(rejected, kTotal - 4);
  EXPECT_EQ(other, 0);
  client.close();
  server.drain();
  // The service only ever saw the admitted requests.
  EXPECT_EQ(server.service().counters().served, 4u);
  EXPECT_EQ(server.stats().rejected, static_cast<std::uint64_t>(kTotal) - 4);
}

TEST(SlowClient, StallingWriterIsDroppedOthersUnaffected) {
  const Tree tree = make_two_level_tree(4, 8);
  ServerOptions server_options;
  server_options.socket_path = unique_socket("stallwrite");
  server_options.idle_timeout_ms = 200;
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();

  // A client that sends half a frame and then goes silent.
  const int staller = raw_connect(server_options.socket_path);
  ASSERT_GE(staller, 0);
  const std::uint8_t torn[2] = {0x40, 0x00};  // first half of a length
  ASSERT_EQ(::send(staller, torn, sizeof(torn), 0),
            static_cast<ssize_t>(sizeof(torn)));

  EXPECT_TRUE(
      eventually([&] { return server.stats().connections_dropped >= 1; }))
      << "idle timeout should drop the stalled connection";

  // A healthy client on the same server is unaffected.
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();
  Reply reply;
  ASSERT_TRUE(client.call(alloc_request(1, 1, 4), reply, 5000))
      << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kOk);
  ::close(staller);
  client.close();
  server.drain();
}

TEST(SlowClient, StalledReaderIsDroppedWithoutWedgingWorkers) {
  const Tree tree = make_two_level_tree(4, 8);
  ServerOptions server_options;
  server_options.socket_path = unique_socket("stallread");
  server_options.write_timeout_ms = 2000;  // the healthy call fits inside
  server_options.send_buffer_bytes = 4096;  // make backpressure cheap to hit
  // Room for all 5000 hog frames: a hog frame decoded in the same pass as
  // the healthy request must not fill the admission bound (Admission.*
  // covers that); this test is about reads and writes.
  server_options.queue_depth = 8192;
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();

  // Flood queries from a client that never reads its replies; reply bytes
  // pile up until the write times out and the connection is dropped.
  const int hog = raw_connect(server_options.socket_path, 2048);
  ASSERT_GE(hog, 0);
  std::vector<std::uint8_t> frames;
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    Request query;
    query.type = MsgType::kQuery;
    query.req_id = i;
    encode_request(query, frames);
  }
  // Push bytes until the server stops absorbing them (our own send buffer
  // fills once the server's reply writes stall) or everything is written.
  std::size_t off = 0;
  while (off < frames.size()) {
    const ssize_t n = ::send(hog, frames.data() + off,
                             std::min<std::size_t>(frames.size() - off, 4096),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }

  // While the hog is still connected with its replies unflushed, a healthy
  // client is answered promptly: the loop stops reading the hog, not
  // serving everyone else.
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();
  Reply reply;
  ASSERT_TRUE(client.call(alloc_request(1, 77, 4), reply, 1000))
      << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().connections_dropped, 0u)
      << "the healthy client must not have waited for the hog's drop";

  EXPECT_TRUE(
      eventually([&] { return server.stats().connections_dropped >= 1; }))
      << "write timeout should drop the never-reading client";
  ::close(hog);
  client.close();
  server.drain();
}

TEST(Malformed, BadFramesAreAnsweredAndContained) {
  const Tree tree = make_two_level_tree(4, 8);
  ServerOptions server_options;
  server_options.socket_path = unique_socket("malformed");
  Server server(tree, ServiceOptions{}, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  Client client;
  ASSERT_TRUE(client.connect(server_options.socket_path)) << client.error();

  // A well-formed frame with a bad enum value earns an error reply, and
  // the same stream then serves a valid request.
  Request bad = alloc_request(1, 1, 4);
  bad.pattern = static_cast<Pattern>(0xee);
  Reply reply;
  ASSERT_TRUE(client.call(bad, reply, 5000)) << client.error();
  EXPECT_EQ(reply.type, MsgType::kErrorReply);
  EXPECT_EQ(reply.status, ServeStatus::kBadRequest);
  EXPECT_EQ(reply.req_id, 1u);
  ASSERT_TRUE(client.call(alloc_request(2, 2, 4), reply, 5000))
      << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().decode_errors, 1u);
  EXPECT_EQ(server.stats().connections_dropped, 0u);

  // An oversized length prefix cannot be resynchronized: one error reply,
  // then the server closes the stream.
  const int corrupt = raw_connect(server_options.socket_path);
  ASSERT_GE(corrupt, 0);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(corrupt, huge, sizeof huge, 0),
            static_cast<ssize_t>(sizeof huge));
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(read_until_closed(corrupt, bytes)) << "stream left open";
  ::close(corrupt);
  std::size_t offset = 0;
  std::span<const std::uint8_t> payload;
  ASSERT_EQ(peel_frame(bytes, offset, payload), DecodeResult::kOk);
  ASSERT_EQ(decode_reply(payload, reply), DecodeResult::kOk);
  EXPECT_EQ(reply.status, ServeStatus::kBadRequest);
  EXPECT_EQ(offset, bytes.size()) << "one reply, then the close";
  EXPECT_EQ(server.stats().decode_errors, 2u);
  EXPECT_EQ(server.stats().connections_dropped, 1u);

  // The first client is unaffected.
  ASSERT_TRUE(client.call(alloc_request(3, 3, 4), reply, 5000))
      << client.error();
  EXPECT_EQ(reply.status, ServeStatus::kOk);
  client.close();
  server.drain();
  EXPECT_EQ(server.service().state().job_count(), 2u);
}

}  // namespace
}  // namespace commsched::serve
