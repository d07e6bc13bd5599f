// Socket front-end of the allocator daemon (DESIGN.md "Allocator service").
//
// Concurrency model — one event-loop thread owns the listening socket,
// every connection and the AllocatorService, the way one slurmctld
// thread owns the select plugin under its lock. Each pass poll(2)s the
// listener and the connections, recv()s every readable connection into
// its buffer, decodes every complete frame (admitting or rejecting it at
// once), serves admitted requests in per-connection arrival order, and
// flushes each connection's coalesced replies with non-blocking send().
// That per-stream FIFO, plus the deterministic AllocatorService
// underneath, is the determinism contract: one client's reply stream is
// bit-identical to the inline service (tests/serve/server_diff_test.cpp).
// Different connections interleave by arrival — determinism is per
// stream, exactly like one slurmctld RPC socket.
//
// Admission control: a global bound on queued-but-unserved requests
// (ServerOptions::queue_depth). Overflow is answered with an immediate
// kRejected reply instead of queueing — bounded memory, and the client
// learns about overload instead of watching latency grow.
//
// Deadlines: each request carries (or inherits) a deadline; the loop
// checks it just before service, before touching any allocator state, and
// answers kTimeout for expired requests. A request that got a kTimeout
// never mutated the cluster, so the client can safely retry with the same
// request id.
//
// Slow clients cannot wedge the loop: a connection is read only while its
// reply buffer is empty, so a client that stops reading stops being read,
// and is dropped after write_timeout_ms without write progress; a client
// silent mid-frame is dropped after idle_timeout_ms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace commsched::serve {

struct ServerOptions {
  std::string socket_path;
  /// Max requests admitted (queued or in service) across all connections;
  /// overflow is answered kRejected as soon as it is decoded.
  std::size_t queue_depth = 1024;
  /// Deadline for requests that carry deadline_ms == 0; 0 = no deadline.
  std::uint32_t default_deadline_ms = 0;
  /// A connection with nothing queued that does no I/O for this long is
  /// dropped; 0 = never.
  std::uint32_t idle_timeout_ms = 30000;
  /// A connection whose queued replies make no write progress for this
  /// long is dropped.
  std::uint32_t write_timeout_ms = 5000;
  /// When > 0, SO_SNDBUF for accepted sockets (tests shrink it to force
  /// reply-write backpressure).
  int send_buffer_bytes = 0;
  /// Test hook, called on the loop thread once per pass: while it returns
  /// true the loop keeps reading and admitting but serves nothing (lets
  /// tests hold requests in the queue deterministically). Ignored once
  /// drain() starts, so a hold cannot hang the drain.
  std::function<bool()> test_hold;
};

/// Monotonic counters, snapshot via Server::stats().
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< idle/stalled/corrupt streams
  std::uint64_t frames_in = 0;  ///< counted once admitted or answered
  std::uint64_t rejected = 0;       ///< admission-control rejections
  std::uint64_t timeouts = 0;       ///< deadline expiries
  std::uint64_t decode_errors = 0;  ///< malformed frames answered/dropped
};

class Server {
 public:
  Server(const Tree& tree, ServiceOptions service_options,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the loop thread. False on failure (error()).
  bool start();
  /// Stop accepting and reading, serve already-admitted requests, flush
  /// their replies, then release everything. Idempotent.
  void drain();

  /// Block until a client sent kDrain (or `stop` was requested).
  void wait_drain_requested();
  /// Make wait_drain_requested() return (signal handlers, tests).
  void request_drain();

  /// Why start() failed, or, after drain(), why the loop thread stopped.
  const std::string& error() const noexcept { return error_; }
  ServerStats stats() const;
  /// The underlying service. Only safe to inspect after drain().
  const AllocatorService& service() const noexcept { return service_; }

 private:
  struct PendingRequest {
    Request request;
    /// steady_clock deadline in ns since epoch; INT64_MAX = none.
    std::int64_t deadline_ns = 0;
  };

  /// One client stream; owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> in;   ///< received bytes not yet framed
    std::vector<std::uint8_t> out;  ///< encoded replies not yet sent
    std::vector<PendingRequest> pending;  ///< admitted, in arrival order
    std::int64_t last_io_ns = 0;    ///< last read or write progress
    /// Peer closed or sent a corrupt frame: read no more, close once the
    /// admitted requests are served and their replies flushed.
    bool closing = false;
    bool corrupt = false;  ///< closing counts as a drop
  };

  /// The loop thread: runs passes until drain() and then until every
  /// admitted request is served and flushed.
  void run_loop();
  void accept_connections(std::int64_t now);
  /// recv() once, then decode and admit every complete frame.
  void read_frames(Connection& conn);
  /// Admission control: queue the request on its connection or answer
  /// kRejected immediately when queue_depth is exhausted.
  void admit(Connection& conn, const Request& request);
  /// Serve the connection's admitted requests in order into its `out`.
  void serve(Connection& conn, Reply& reply);
  /// Non-blocking send of `out`; drops the connection on a hard error.
  void flush(Connection& conn, std::int64_t now);
  /// Close finished, idle or write-stalled connections.
  void settle(Connection& conn, std::int64_t now, bool draining);
  void close_connection(Connection& conn, bool dropped);

  AllocatorService service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::string error_;

  // Loop-thread state; drain() reads it only after joining the loop.
  std::vector<Connection> conns_;
  std::size_t pending_total_ = 0;
  std::string loop_error_;  ///< what() of an exception that ended the loop

  std::mutex drain_mutex_;  // guards drain_requested_
  std::condition_variable drain_cv_;
  bool drain_requested_ = false;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> decode_errors_{0};

  std::thread loop_;  // last: uses every member above
};

}  // namespace commsched::serve
