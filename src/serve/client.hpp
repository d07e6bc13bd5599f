// Blocking client for the allocator daemon (DESIGN.md "Allocator service").
//
// One Client wraps one connected stream socket. send_request() frames and
// writes a message; recv_reply() blocks (with an optional timeout) until
// the next complete reply frame arrives; call() does both. Replies come
// back in whatever order the server finishes them — an admission
// rejection is answered as soon as its frame is decoded and can overtake
// replies to requests admitted before it — so pipelining callers (the
// load generator) match replies to requests by req_id, never by
// position.
//
// Every method reports failure by returning false and setting error();
// nothing throws. A connection error leaves the client dead (connected()
// == false) — callers reconnect and re-send unacknowledged request ids,
// which the service answers idempotently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace commsched::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a daemon's unix socket. False + error() on failure.
  bool connect(const std::string& socket_path);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }
  const std::string& error() const noexcept { return error_; }

  /// Frame and write one request. Blocks until fully written.
  bool send_request(const Request& request);
  /// Block until the next reply frame. timeout_ms < 0 waits forever;
  /// expiry or connection loss returns false.
  bool recv_reply(Reply& out, int timeout_ms = -1);
  /// send_request + recv_reply. Only valid when no replies are in flight.
  bool call(const Request& request, Reply& out, int timeout_ms = -1);

 private:
  bool fail(const std::string& message);

  int fd_ = -1;
  std::string error_;
  std::vector<std::uint8_t> send_buf_;
  std::vector<std::uint8_t> recv_buf_;
  std::size_t recv_offset_ = 0;
};

}  // namespace commsched::serve
