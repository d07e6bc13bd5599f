#include "serve/loadgen.hpp"

#include <chrono>
#include <cmath>
#include <numbers>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace commsched::serve {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LoadStream build_stream(const LoadSpec& spec, int machine_nodes) {
  COMMSCHED_ASSERT(machine_nodes > 0);
  COMMSCHED_ASSERT(spec.min_exp >= 0 && spec.min_exp <= spec.max_exp);
  LoadStream stream;
  stream.requests.reserve(spec.requests);
  stream.send_time.assign(spec.requests, 0.0);
  Rng rng(spec.seed);
  // Jobs no larger than half the machine so the generator exercises
  // packing, not just wall-to-wall no-fits.
  int hi = spec.max_exp;
  while (hi > spec.min_exp && (1 << hi) > machine_nodes / 2) --hi;
  // Planned releases, ordered by stream slot (min-heap).
  using Hold = std::pair<std::int64_t, std::int64_t>;  // (slot, job)
  std::priority_queue<Hold, std::vector<Hold>, std::greater<Hold>> holds;
  std::uint64_t next_req = 1;
  std::int64_t next_job = 1;
  double t = 0.0;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    Request req;
    req.req_id = next_req++;
    req.deadline_ms = spec.deadline_ms;
    req.allocator = spec.allocator;
    if (!holds.empty() &&
        holds.top().first <= static_cast<std::int64_t>(i)) {
      req.type = MsgType::kRelease;
      req.job = holds.top().second;
      holds.pop();
    } else {
      req.type = MsgType::kAlloc;
      req.job = next_job++;
      req.num_nodes =
          1 << rng.uniform_int(spec.min_exp, hi);
      req.comm_intensive = rng.uniform_real(0.0, 1.0) < spec.comm_percent;
      req.io_intensive = rng.uniform_real(0.0, 1.0) < spec.io_percent;
      req.comm_fraction = req.comm_intensive ? spec.comm_fraction : 0.0;
      req.io_fraction = req.io_intensive ? 0.2 : 0.0;
      const double u = rng.uniform_real(0.0, 1.0);
      req.pattern = u < 0.35   ? Pattern::kRecursiveDoubling
                    : u < 0.60 ? Pattern::kRecursiveHalvingVD
                    : u < 0.80 ? Pattern::kBinomial
                               : Pattern::kPairwiseAlltoall;
      // 64 KiB .. 16 MiB, power-of-two (the paper's msize axis).
      req.msize =
          static_cast<double>(1 << (16 + rng.uniform_int(0, 8)));
      const double hold = rng.exponential(spec.hold_mean);
      holds.emplace(static_cast<std::int64_t>(i) + 1 +
                        static_cast<std::int64_t>(hold),
                    req.job);
    }
    if (spec.arrival_rate > 0.0) {
      double rate = spec.arrival_rate;
      if (spec.burstiness > 0.0 && spec.burst_period > 0.0)
        rate *= 1.0 + spec.burstiness *
                          std::sin(2.0 * std::numbers::pi *
                                   static_cast<double>(i) /
                                   spec.burst_period);
      t += rng.exponential(1.0 / rate);
      stream.send_time[i] = t;
    }
    stream.requests.push_back(req);
  }
  return stream;
}

void encode_stream(const LoadStream& stream, std::vector<std::uint8_t>& out) {
  for (const Request& req : stream.requests) encode_request(req, out);
}

std::string canonical_reply_line(const Reply& reply) {
  std::string line = "req=" + std::to_string(reply.req_id);
  line += " type=";
  line += msg_type_name(reply.type);
  line += " status=";
  line += serve_status_name(reply.status);
  if (reply.type == MsgType::kAllocReply &&
      reply.status == ServeStatus::kOk) {
    line += " cost=" + json_number(reply.cost);
    line += " nodes=[";
    for (std::size_t i = 0; i < reply.nodes.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(reply.nodes[i]);
    }
    line += ']';
  } else if (reply.type == MsgType::kReleaseReply &&
             reply.status == ServeStatus::kOk) {
    line += " freed=" + std::to_string(reply.freed);
  }
  return line;
}

std::vector<std::string> reference_log(const LoadStream& stream,
                                       const Tree& tree,
                                       const ServiceOptions& options) {
  AllocatorService service(tree, options);
  std::vector<std::string> log;
  log.reserve(stream.requests.size());
  Reply reply;
  for (const Request& req : stream.requests) {
    service.handle(req, reply);
    log.push_back(canonical_reply_line(reply));
  }
  return log;
}

ReplayResult replay(Client& client, const LoadStream& stream,
                    const ReplayOptions& options) {
  ReplayResult result;
  if (options.collect_log)
    result.log.assign(stream.requests.size(), std::string());
  // req_id -> (stream index, send timestamp). Replies can arrive out of
  // order (admission rejections overtake served replies).
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::int64_t>>
      outstanding;
  outstanding.reserve(options.window * 2);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next = 0;
  std::size_t answered = 0;
  Reply reply;
  bool failed = false;
  while (answered < stream.requests.size()) {
    while (next < stream.requests.size() &&
           outstanding.size() < options.window) {
      if (options.paced && stream.send_time[next] > 0.0) {
        const auto target =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(stream.send_time[next]));
        if (std::chrono::steady_clock::now() < target) {
          if (!outstanding.empty()) break;  // drain replies meanwhile
          std::this_thread::sleep_until(target);
        }
      }
      const std::int64_t sent_at = now_ns();
      if (!client.send_request(stream.requests[next])) {
        failed = true;
        break;
      }
      outstanding.emplace(stream.requests[next].req_id,
                          std::make_pair(next, sent_at));
      ++next;
    }
    if (failed || outstanding.empty()) break;
    if (!client.recv_reply(reply, options.recv_timeout_ms)) {
      failed = true;
      break;
    }
    const auto it = outstanding.find(reply.req_id);
    if (it == outstanding.end()) continue;  // stale/unknown id: ignore
    result.latency.record(static_cast<std::uint64_t>(
        (now_ns() - it->second.second) / 1000));
    switch (reply.status) {
      case ServeStatus::kOk: ++result.ok; break;
      case ServeStatus::kNoFit: ++result.no_fit; break;
      case ServeStatus::kRejected: ++result.rejected; break;
      case ServeStatus::kTimeout: ++result.timeouts; break;
      case ServeStatus::kBadRequest: ++result.bad; break;
      default: ++result.other; break;
    }
    if (options.collect_log)
      result.log[it->second.first] = canonical_reply_line(reply);
    outstanding.erase(it);
    ++answered;
  }
  result.complete = answered == stream.requests.size();
  if (!result.complete)
    result.io_errors = stream.requests.size() - answered;
  return result;
}

}  // namespace commsched::serve
