// Deterministic load generator for the allocator daemon.
//
// build_stream() turns (LoadSpec, machine size) into a fully materialized
// request stream: every field of every request, including the request ids
// and the open-loop send schedule, is a pure function of the seed — the
// same spec always produces a byte-identical encode_stream() image
// (pinned by tests/serve/loadgen_golden_test.cpp). Jobs allocate
// power-of-two node counts and release after an exponentially distributed
// hold measured in stream slots, so the cluster reaches a seed-determined
// steady occupancy instead of filling up monotonically.
//
// replay() drives a connected Client with a bounded pipeline window,
// matching replies to requests by req_id (rejections overtake served
// replies), recording wall-clock latency per request into a
// LatencyHistogram, and optionally collecting a canonical reply log.
// The log is indexed by stream position and strips every wall-time field,
// so it is byte-comparable across runs, transports, and daemon restarts —
// the load generator doubles as the differential test harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/service.hpp"
#include "util/latency_histogram.hpp"

namespace commsched::serve {

struct LoadSpec {
  std::uint64_t seed = 20200817;
  std::size_t requests = 10000;  ///< total stream length (allocs + releases)
  int min_exp = 0;               ///< smallest job: 2^min_exp nodes
  int max_exp = 5;               ///< largest job: 2^max_exp nodes
  double comm_percent = 0.9;     ///< fraction of jobs that are comm-intensive
  double comm_fraction = 0.5;    ///< their time under communication (f_c)
  double io_percent = 0.1;
  double hold_mean = 24.0;       ///< mean job lifetime in stream slots
  std::uint32_t deadline_ms = 0;  ///< per-request deadline (0 = none)
  std::uint8_t allocator = kServerAllocator;
  /// Open-loop pacing for replay(.paced): mean requests/second; 0 = as
  /// fast as the window allows (send_time all zero).
  double arrival_rate = 0.0;
  /// Sinusoidal rate modulation in [0,1): peak rate = (1+b)*arrival_rate,
  /// trough = (1-b)*arrival_rate — the bursty open-loop traffic shape.
  double burstiness = 0.0;
  double burst_period = 1000.0;  ///< slots per burst cycle
};

struct LoadStream {
  std::vector<Request> requests;
  /// Planned send time of requests[i], seconds from replay start (paced).
  std::vector<double> send_time;
};

/// Materialize the request stream for a machine with `machine_nodes` nodes.
LoadStream build_stream(const LoadSpec& spec, int machine_nodes);

/// Append every request's wire frame to `out` (the golden-file image).
void encode_stream(const LoadStream& stream, std::vector<std::uint8_t>& out);

/// One reply as a canonical text line: req id, type, status, cost
/// (shortest round-trip form), nodes/freed. No wall-time fields.
std::string canonical_reply_line(const Reply& reply);

/// The reply log an inline AllocatorService produces for `stream` — the
/// oracle the daemon's log must match byte-for-byte.
std::vector<std::string> reference_log(const LoadStream& stream,
                                       const Tree& tree,
                                       const ServiceOptions& options);

struct ReplayOptions {
  std::size_t window = 64;     ///< max in-flight requests
  bool paced = false;          ///< honor stream.send_time
  int recv_timeout_ms = 10000;
  bool collect_log = false;    ///< fill ReplayResult::log
};

struct ReplayResult {
  LatencyHistogram latency;  ///< microseconds, send to matching reply
  std::uint64_t ok = 0;
  std::uint64_t no_fit = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad = 0;        ///< kBadRequest / kErrorReply
  std::uint64_t other = 0;      ///< any remaining status
  std::uint64_t io_errors = 0;  ///< requests lost to connection failure
  /// canonical_reply_line() per stream position ("" = no reply received).
  std::vector<std::string> log;
  bool complete = false;  ///< every request got a reply
};

/// Replay the stream over a connected client. On connection failure the
/// unanswered and unsent requests are counted as io_errors and replay
/// stops (complete == false) — the caller reconnects and replays again,
/// relying on idempotent request ids.
ReplayResult replay(Client& client, const LoadStream& stream,
                    const ReplayOptions& options = {});

}  // namespace commsched::serve
