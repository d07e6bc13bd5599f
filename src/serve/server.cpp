#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <limits>
#include <span>
#include <utility>

namespace commsched::serve {

namespace {

constexpr std::int64_t kNsPerMs = 1000000;
/// poll() timeout: bounds how late timeouts, a lifted test hold and
/// drain() are noticed on an otherwise quiet loop.
constexpr int kTickMs = 100;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Reply quick_reply(MsgType request_type, std::uint64_t req_id,
                  ServeStatus status) {
  Reply r;
  r.type = reply_type_for(request_type);
  r.req_id = req_id;
  r.status = status;
  return r;
}

}  // namespace

Server::Server(const Tree& tree, ServiceOptions service_options,
               ServerOptions options)
    : service_(tree, service_options), options_(std::move(options)) {}

Server::~Server() { drain(); }

bool Server::start() {
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    error_ = "invalid socket path: " + options_.socket_path;
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    error_ = "socket() failed: " + std::string(std::strerror(errno));
    return false;
  }
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    error_ = "bind(" + options_.socket_path +
             ") failed: " + std::string(std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    error_ = "listen() failed: " + std::string(std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return false;
  }
  loop_ = std::thread([this] {
    try {
      run_loop();
    } catch (const std::exception& e) {
      // Reported by drain(); wake the waiter so the daemon exits instead
      // of holding a socket nobody serves.
      loop_error_ = e.what();
      request_drain();
    }
  });
  return true;
}

void Server::drain() {
  stopping_.store(true);
  if (loop_.joinable()) loop_.join();
  for (const Connection& conn : conns_) ::close(conn.fd);  // loop failed
  conns_.clear();
  if (!loop_error_.empty()) error_ = "event loop failed: " + loop_error_;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  request_drain();
}

void Server::wait_drain_requested() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] { return drain_requested_; });
}

void Server::request_drain() {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_requested_ = true;
  }
  drain_cv_.notify_all();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_dropped = connections_dropped_.load();
  s.frames_in = frames_in_.load();
  s.rejected = rejected_.load();
  s.timeouts = timeouts_.load();
  s.decode_errors = decode_errors_.load();
  return s;
}

void Server::run_loop() {
  std::vector<pollfd> fds;
  Reply reply;
  for (;;) {
    // Once draining, nothing new is accepted or read; the loop serves what
    // was admitted, flushes it and exits when every connection is closed.
    const bool draining = stopping_.load();
    if (draining || !options_.test_hold || !options_.test_hold())
      for (Connection& conn : conns_) serve(conn, reply);
    const std::int64_t now = now_ns();
    for (Connection& conn : conns_) {
      flush(conn, now);
      settle(conn, now, draining);
    }
    std::erase_if(conns_, [](const Connection& c) { return c.fd < 0; });
    if (draining && conns_.empty()) return;

    // Read a connection only while its replies are flushed: a client that
    // stops reading stops being read, and its queued replies stay bounded.
    fds.clear();
    fds.push_back({draining ? -1 : listen_fd_, POLLIN, 0});
    for (const Connection& conn : conns_) {
      short events = 0;
      if (!conn.out.empty()) events = POLLOUT;
      else if (!draining && !conn.closing) events = POLLIN;
      fds.push_back({events != 0 ? conn.fd : -1, events, 0});
    }
    if (::poll(fds.data(), fds.size(), kTickMs) <= 0) continue;
    for (std::size_t i = 1; i < fds.size(); ++i)
      if ((fds[i].events & POLLIN) != 0 && fds[i].revents != 0)
        read_frames(conns_[i - 1]);
    // Appended after the polled connections, so the indices above hold.
    if ((fds[0].revents & POLLIN) != 0) accept_connections(now_ns());
  }
}

void Server::accept_connections(std::int64_t now) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // backlog empty
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    conn.last_io_ns = now;
    connections_accepted_.fetch_add(1);
  }
}

void Server::read_frames(Connection& conn) {
  std::uint8_t chunk[16384];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (n <= 0) {  // peer closed (or the stream broke)
    conn.closing = true;
    return;
  }
  conn.last_io_ns = now_ns();
  conn.in.insert(conn.in.end(), chunk, chunk + n);
  std::size_t offset = 0;
  Request req;
  while (!conn.closing) {
    std::span<const std::uint8_t> payload;
    const DecodeResult framed = peel_frame(conn.in, offset, payload);
    if (framed == DecodeResult::kNeedMore) break;
    if (framed == DecodeResult::kOversized) {
      decode_errors_.fetch_add(1);
      encode_reply(quick_reply(MsgType::kHello, /*req_id=*/0,
                               ServeStatus::kBadRequest),
                   conn.out);
      conn.closing = conn.corrupt = true;
      break;
    }
    const DecodeResult decoded = decode_request(payload, req);
    if (decoded == DecodeResult::kOk) {
      admit(conn, req);
    } else {
      decode_errors_.fetch_add(1);
      Reply err = quick_reply(MsgType::kHello, req.req_id,
                              ServeStatus::kBadRequest);
      err.type = MsgType::kErrorReply;
      encode_reply(err, conn.out);
      // A value error sits inside a well-formed frame — the stream is
      // still in sync. Anything else means corruption: close.
      if (decoded != DecodeResult::kBadValue)
        conn.closing = conn.corrupt = true;
    }
    // Counted after admission, so a stats() reader sees the outcome.
    frames_in_.fetch_add(1);
  }
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
}

void Server::admit(Connection& conn, const Request& request) {
  if (pending_total_ >= options_.queue_depth) {
    rejected_.fetch_add(1);
    encode_reply(quick_reply(request.type, request.req_id,
                             ServeStatus::kRejected),
                 conn.out);
    return;
  }
  const std::uint32_t deadline_ms = request.deadline_ms != 0
                                        ? request.deadline_ms
                                        : options_.default_deadline_ms;
  conn.pending.push_back(
      {request, deadline_ms != 0
                    ? now_ns() + deadline_ms * kNsPerMs
                    : std::numeric_limits<std::int64_t>::max()});
  ++pending_total_;
}

void Server::serve(Connection& conn, Reply& reply) {
  for (const PendingRequest& item : conn.pending) {
    if (now_ns() > item.deadline_ns) {
      // Expired before service — answered without touching any state,
      // so a client retry with the same request id is safe.
      timeouts_.fetch_add(1);
      reply = quick_reply(item.request.type, item.request.req_id,
                          ServeStatus::kTimeout);
    } else {
      service_.handle(item.request, reply);
      if (reply.type == MsgType::kQueryReply) {
        reply.rejected = rejected_.load();
        reply.timeouts = timeouts_.load();
      }
    }
    encode_reply(reply, conn.out);
    if (item.request.type == MsgType::kDrain) request_drain();
  }
  pending_total_ -= conn.pending.size();
  conn.pending.clear();
}

void Server::flush(Connection& conn, std::int64_t now) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                             conn.out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      conn.last_io_ns = now;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;  // settle() times the stall
    close_connection(conn, /*dropped=*/true);
    return;
  }
  conn.out.erase(conn.out.begin(),
                 conn.out.begin() + static_cast<std::ptrdiff_t>(sent));
}

void Server::settle(Connection& conn, std::int64_t now, bool draining) {
  if (conn.fd < 0) return;
  const std::int64_t quiet_ns = now - conn.last_io_ns;
  if (!conn.out.empty()) {
    // Replies queued, but the client is not reading them.
    if (quiet_ns >= options_.write_timeout_ms * kNsPerMs)
      close_connection(conn, /*dropped=*/true);
    return;
  }
  if (!conn.pending.empty()) return;  // held by test_hold
  if (conn.closing || draining) {
    close_connection(conn, conn.corrupt);
  } else if (options_.idle_timeout_ms > 0 &&
             quiet_ns >= options_.idle_timeout_ms * kNsPerMs) {
    close_connection(conn, /*dropped=*/true);
  }
}

void Server::close_connection(Connection& conn, bool dropped) {
  // Counted before the close, so the peer never sees one uncounted.
  if (dropped) connections_dropped_.fetch_add(1);
  ::close(conn.fd);
  conn.fd = -1;
  pending_total_ -= conn.pending.size();
  conn.pending.clear();
}

}  // namespace commsched::serve
