// serve-closed: the allocd daemon driven over one connection by a closed
// loop with a fixed window of requests in flight.
//
// allocd runs as a child process (32x16 tree, --threads 1, default policy
// from allocd.conf). The stream is a sequence of rounds; each round is a
// build_stream() alloc/release stream followed by releases of the jobs it
// left allocated, so every round ends on an empty machine. Round 0 is an
// untimed warm-up whose reply log must equal serve::reference_log; the timed
// rounds' replies are checked against an inline AllocatorService fed the
// same requests. The traced run adds in-process codec and service timings
// over the identical stream, the daemon's counters and its rusage.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serve/loadgen.hpp"
#include "slurm/conf.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace commsched;
using namespace commsched::serve;

constexpr int kLeaves = 32;
constexpr int kNodesPerLeaf = 16;
constexpr std::size_t kWindow = 16;

// Per-layer metrics of the replay workloads' shadow. serve-closed reports
// them as 0: the daemon's select, pricing and state calls are inside
// serve.service.us_per_req, and there is no event recorder.
constexpr std::pair<const char*, const char*> kReplayLayers[] = {
    {"core.select.calls", "count"},
    {"core.select.s", "s"},
    {"core.select.p99_us", "us"},
    {"core.select_default.s", "s"},
    {"core.cost.calls", "count"},
    {"core.cost.s", "s"},
    {"collectives.profile.lookups", "count"},
    {"collectives.profile.misses", "count"},
    {"collectives.profile.hit_rate", "ratio"},
    {"collectives.profile.s", "s"},
    {"core.sa.proposals", "count"},
    {"core.sa.accepts", "count"},
    {"core.sa.accept_ratio", "ratio"},
    {"core.sa.ns_per_proposal", "ns"},
    {"cluster.state.calls", "count"},
    {"cluster.state.s", "s"},
    {"sched.starts", "count"},
    {"sched.residual_s", "s"},
    {"sched.residual_iqr_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

/// allocd child process. Its stdout is a pipe kept open until the child is
/// reaped, so its final log line never hits a closed pipe.
class Daemon {
 public:
  /// `cpus`: affinity for the child; an empty set leaves it unpinned.
  explicit Daemon(const cpu_set_t& cpus) : cpus_(cpus) {}
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      rusage ru{};
      wait(ru);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  /// Start the binary and wait (up to 10 s) for its "listening" line.
  bool spawn(const std::vector<std::string>& argv, std::string& error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      error = "pipe: " + std::string(std::strerror(errno));
      return false;
    }
    std::vector<char*> args;
    for (const std::string& a : argv)
      args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      error = "fork: " + std::string(std::strerror(errno));
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // Die with the benchmark: no daemon outlives a crashed perfbench.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (CPU_COUNT(&cpus_) > 0) ::sched_setaffinity(0, sizeof(cpus_), &cpus_);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string text;
    const auto t0 = Clock::now();
    while (text.find("listening") == std::string::npos) {
      const int left_ms = 10000 - static_cast<int>(seconds_since(t0) * 1e3);
      pollfd p{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) {
        error = "allocd did not report listening";
        return false;
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        error = "allocd exited during start-up";
        return false;
      }
      text.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reap the child (after a drain request); false unless it exits 0.
  bool wait(rusage& ru) {
    int status = 0;
    const pid_t got = ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  cpu_set_t cpus_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// The first allowed CPU, alone in `cpus`. False (empty set) when the
// affinity cannot be read.
bool first_cpu(cpu_set_t& cpus) {
  CPU_ZERO(&cpus);
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &cpus);
    return true;
  }
  return false;
}

/// A round's stream is rebuilt on demand from its index and first req_id.
struct RoundIds {
  int index = 0;
  std::uint64_t req_base = 1;  ///< req_id of the round's first request
};

// Round r: a build_stream() stream with req_ids shifted past every earlier
// round, then releases for the jobs still allocated at its end. Job ids
// restart each round (the previous round released them all), so the
// daemon's job tables stay the size of one round.
std::vector<Request> make_round(std::uint64_t seed, const RoundIds& ids,
                                std::size_t requests) {
  LoadSpec spec;
  spec.seed = splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(ids.index)));
  spec.requests = requests;
  std::vector<Request> reqs =
      build_stream(spec, kLeaves * kNodesPerLeaf).requests;
  std::set<std::int64_t> live;
  for (Request& req : reqs) {
    req.req_id += ids.req_base - 1;
    if (req.type == MsgType::kAlloc)
      live.insert(req.job);
    else
      live.erase(req.job);
  }
  for (const std::int64_t job : live) {
    Request release;
    release.type = MsgType::kRelease;
    release.req_id = ids.req_base + reqs.size();
    release.job = job;
    reqs.push_back(release);
  }
  return reqs;
}

// FNV-1a over the fields canonical_reply_line() prints, so equal hashes
// stand for equal reply-log lines without building strings in the loop.
std::uint64_t reply_hash(const Reply& reply) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(reply.req_id);
  mix(static_cast<std::uint64_t>(reply.type));
  mix(static_cast<std::uint64_t>(reply.status));
  if (reply.status == ServeStatus::kOk) {
    if (reply.type == MsgType::kAllocReply) {
      mix(std::bit_cast<std::uint64_t>(reply.cost));
      for (const std::uint32_t n : reply.nodes) mix(n);
    } else if (reply.type == MsgType::kReleaseReply) {
      mix(reply.freed);
    }
  }
  return h;
}

// no_fit is a valid answer, and so is unknown_job for the release of a job
// whose alloc did not fit.
bool is_failure(const Reply& reply) {
  return reply.type == MsgType::kErrorReply ||
         (reply.status != ServeStatus::kOk &&
          reply.status != ServeStatus::kNoFit &&
          reply.status != ServeStatus::kUnknownJob);
}

struct RoundResult {
  bool complete = false;
  double seconds = 0.0;
  std::uint64_t failed = 0;
  double lifetime_sum_s = 0.0;  ///< alloc sent -> release answered, per job
  std::uint64_t lifetimes = 0;
};

// Closed loop: keep kWindow requests in flight and send the next as soon as
// a reply arrives. Replies are matched to requests by req_id; each reply's
// hash lands at its stream position in `hashes`.
RoundResult drive(Client& client, const std::vector<Request>& reqs,
                  std::uint64_t req_base, std::vector<double>& latency_us,
                  std::vector<std::uint64_t>& hashes,
                  std::vector<std::string>* lines) {
  std::vector<std::int64_t> sent_ns(reqs.size(), 0);
  std::vector<std::int64_t> alloc_ns(reqs.size(), 0);  // by job - first job
  const std::int64_t job0 = reqs.front().job;
  const std::size_t hash0 = hashes.size();
  hashes.resize(hash0 + reqs.size(), 0);
  RoundResult r;
  std::size_t next = 0, answered = 0;
  Reply reply;
  const auto t0 = Clock::now();
  while (answered < reqs.size()) {
    while (next < reqs.size() && next - answered < kWindow) {
      sent_ns[next] = now_ns();
      if (!client.send_request(reqs[next])) return r;
      ++next;
    }
    if (!client.recv_reply(reply, 10000)) return r;
    const std::uint64_t pos = reply.req_id - req_base;
    if (pos >= reqs.size() || sent_ns[pos] == 0) return r;
    const std::int64_t now = now_ns();
    latency_us.push_back(static_cast<double>(now - sent_ns[pos]) * 1e-3);
    const Request& req = reqs[pos];
    const auto job_slot = static_cast<std::size_t>(req.job - job0);
    if (reply.status == ServeStatus::kOk && job_slot < alloc_ns.size()) {
      if (req.type == MsgType::kAlloc) {
        alloc_ns[job_slot] = sent_ns[pos];
      } else if (req.type == MsgType::kRelease && alloc_ns[job_slot] != 0) {
        r.lifetime_sum_s += static_cast<double>(now - alloc_ns[job_slot]) * 1e-9;
        ++r.lifetimes;
      }
    }
    if (is_failure(reply)) ++r.failed;
    hashes[hash0 + pos] = reply_hash(reply);
    if (lines != nullptr) (*lines)[pos] = canonical_reply_line(reply);
    ++answered;
  }
  r.seconds = seconds_since(t0);
  r.complete = true;
  return r;
}

// Wire codec cost on the same frames: encode + peel + decode of each
// request and of its reply. Returns total seconds.
double codec_seconds(const std::vector<Request>& reqs,
                     const std::vector<Reply>& replies) {
  std::vector<std::uint8_t> buf;
  Request req_out;
  Reply reply_out;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::span<const std::uint8_t> payload;
    std::size_t off = 0;
    buf.clear();
    encode_request(reqs[i], buf);
    peel_frame(buf, off, payload);
    decode_request(payload, req_out);
    buf.clear();
    off = 0;
    encode_reply(replies[i], buf);
    peel_frame(buf, off, payload);
    decode_reply(payload, reply_out);
    sink += req_out.req_id + reply_out.nodes.size();
  }
  const double s = seconds_since(t0);
  return sink == 0 ? 0.0 : s;
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

Outcome run_serve(const RunConfig& config) {
  Outcome out;
  // Short rounds: a millisecond stall of the daemon delays a few hundred
  // requests, which sets the p99 of any round it lands in; the median
  // round of many short ones is stall-free.
  const std::size_t round_requests = config.small ? 1000 : 5000;
  const Tree tree = make_two_level_tree(kLeaves, kNodesPerLeaf);
  // The daemon's service options, derived from the conf it reads.
  const SlurmConf conf = load_slurm_conf(config.conf_path);
  ServiceOptions service_options;
  service_options.default_allocator = conf.sched.allocator;
  service_options.cost_options = conf.sched.cost_options;
  service_options.sa = conf.sched.sa;
  service_options.audit = AuditLevel::kOff;

  // This client and allocd's reader and worker share one CPU, so every
  // hand-off is a context switch on that CPU. Spread over three CPUs, each
  // hand-off wakes an idle virtual CPU, and on a loaded shared host those
  // wake-ups cost up to milliseconds: throughput fell from 190k to 50k
  // requests/s between runs. On one CPU it stayed within 2%.
  cpu_set_t cpus;
  if (first_cpu(cpus)) ::sched_setaffinity(0, sizeof(cpus), &cpus);

  // Set-up: spawn allocd until it listens, connect, build the first round.
  // The daemon started first serves the run. Every kRoundsPerSetup timed
  // rounds, between rounds, a second daemon is started the same way and
  // drained at once; setup_s is the median start-up, as for the replays.
  constexpr std::size_t kRoundsPerSetup = 20;
  std::vector<double> setup_times;
  const auto start = [&](Daemon& daemon, Client& client, std::size_t tag,
                         std::vector<Request>& first_round) {
    const std::string socket = config.out_dir + "/allocd-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(tag) + ".sock";
    ::unlink(socket.c_str());
    const auto t0 = Clock::now();
    std::string error;
    if (!daemon.spawn({config.allocd_path, "--socket", socket, "--conf",
                       config.conf_path, "--leaves", std::to_string(kLeaves),
                       "--nodes-per-leaf", std::to_string(kNodesPerLeaf),
                       "--threads", "1"},
                      error) ||
        !client.connect(socket)) {
      out.check(false, "allocd start-up: " + error + client.error());
      return false;
    }
    first_round = make_round(config.seed, RoundIds{}, round_requests);
    setup_times.push_back(seconds_since(t0));
    ::unlink(socket.c_str());  // the connection stays up
    return true;
  };
  Daemon daemon(cpus);
  Client client;
  std::vector<Request> warm;
  if (!start(daemon, client, 0, warm)) return out;
  const auto probe_setup = [&](std::size_t tag) {
    Daemon probe(cpus);
    Client probe_client;
    std::vector<Request> first_round;
    if (!start(probe, probe_client, tag, first_round)) return;
    Request drain;
    drain.type = MsgType::kDrain;
    Reply ack;
    rusage ru{};
    out.check(probe_client.call(drain, ack, 10000) && probe.wait(ru),
              "allocd did not drain cleanly after a set-up probe");
  };

  // Round 0: untimed warm-up, checked line by line against reference_log.
  std::vector<double> latency_us;
  std::vector<std::uint64_t> hashes;
  std::vector<std::string> warm_lines(warm.size());
  const RoundResult warm_result =
      drive(client, warm, 1, latency_us, hashes, &warm_lines);
  out.check(warm_result.complete, "serve: warm-up round incomplete");
  LoadStream warm_stream;
  warm_stream.requests = warm;
  out.check(warm_lines == reference_log(warm_stream, tree, service_options),
            "serve: reply log differs from serve::reference_log");
  warm_lines.clear();

  // Timed rounds until the budget is spent. The next round's stream is
  // built between rounds, outside the timed span. Every statistic is taken
  // per round, and each metric reports the median round.
  std::size_t timed_rounds = 0;
  std::vector<double> round_rates, round_p50, round_p99, round_lifetime_h;
  double timed_s = 0.0, latency_sum_us = 0.0;
  std::uint64_t failed = warm_result.failed, latency_samples = 0;
  std::uint64_t sent = warm.size();
  while (timed_rounds < 3 || timed_s < config.seconds) {
    const RoundIds ids{static_cast<int>(timed_rounds) + 1, sent + 1};
    const std::vector<Request> reqs =
        make_round(config.seed, ids, round_requests);
    ++timed_rounds;
    if (timed_rounds % kRoundsPerSetup == 0) probe_setup(timed_rounds);
    latency_us.clear();
    const RoundResult rr =
        drive(client, reqs, ids.req_base, latency_us, hashes, nullptr);
    sent += reqs.size();
    if (!rr.complete) {
      out.check(false, "serve: a round lost replies: " + client.error());
      failed += reqs.size();
      break;
    }
    timed_s += rr.seconds;
    failed += rr.failed;
    round_rates.push_back(static_cast<double>(reqs.size()) / rr.seconds);
    round_p50.push_back(median(latency_us));
    round_p99.push_back(quantile(latency_us, 0.99));
    if (rr.lifetimes > 0)
      round_lifetime_h.push_back(
          rr.lifetime_sum_s / static_cast<double>(rr.lifetimes) / 3600.0);
    for (const double v : latency_us) latency_sum_us += v;
    latency_samples += latency_us.size();
  }
  const std::uint64_t timed_requests = sent - warm.size();

  // Server counters, then drain and the daemon's own resource usage.
  Request query;
  query.type = MsgType::kQuery;
  query.req_id = sent + 1;
  Reply counters;
  out.check(client.call(query, counters, 10000), "serve: query failed");
  Request drain;
  drain.type = MsgType::kDrain;
  drain.req_id = sent + 2;
  Reply ack;
  rusage ru{};
  out.check(client.call(drain, ack, 10000), "serve: drain request failed");
  client.close();
  out.check(daemon.wait(ru), "serve: allocd did not exit 0 after drain");
  out.check(counters.rejected == 0 && counters.timeouts == 0,
            "serve: the daemon rejected or timed out requests");
  out.check(counters.served == sent,
            "serve: served counter differs from requests sent");
  out.check(failed == 0, "serve: failed replies");
  out.attempted = sent;
  out.failed = failed;

  // Inline AllocatorService over the same stream, outside the timed region.
  // Every daemon reply must equal its reply to the same request; the traced
  // run times this pass and the wire codec on the same frames.
  // avg_comm_cost prices the warm-up and the first kPricedRounds rounds,
  // going on past the rounds the timed loop reached, so it does not depend
  // on machine speed and repeats bit for bit.
  constexpr std::size_t kPricedRounds = 80;
  AllocatorService service(tree, service_options);
  std::vector<Reply> replies;
  std::size_t k = 0;
  bool same_log = true;
  double service_s = 0.0, codec_s = 0.0, cost_sum = 0.0;
  std::uint64_t priced = 0;
  // Replies are compared while the stream position has a daemon reply.
  const auto reference_pass = [&](const std::vector<Request>& reqs,
                                   bool timed, bool price) {
    replies.resize(reqs.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); ++i)
      service.handle(reqs[i], replies[i]);
    if (timed) service_s += seconds_since(t0);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (k < hashes.size())
        same_log = same_log && reply_hash(replies[i]) == hashes[k++];
      if (price && reqs[i].type == MsgType::kAlloc &&
          reqs[i].comm_intensive && reqs[i].num_nodes >= 2 &&
          replies[i].status == ServeStatus::kOk) {
        cost_sum += replies[i].cost;
        ++priced;
      }
    }
    if (config.trace && timed) codec_s += codec_seconds(reqs, replies);
  };
  reference_pass(warm, false, true);
  std::uint64_t req_base = warm.size() + 1;
  for (std::size_t r = 0; r < std::max(timed_rounds, kPricedRounds); ++r) {
    const std::vector<Request> reqs = make_round(
        config.seed, RoundIds{static_cast<int>(r) + 1, req_base},
        round_requests);
    req_base += reqs.size();
    reference_pass(reqs, r < timed_rounds, r < kPricedRounds);
  }
  out.check(same_log && k == hashes.size(),
            "serve: reply log differs from the inline service");

  const double ops_per_s = median(round_rates);
  if (!config.trace) {
    out.metric("setup_s", median(setup_times), "s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("latency_p50_us", median(round_p50), "us");
    out.metric("latency_p99_us", median(round_p99), "us");
    out.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    // A daemon job's turnaround: alloc sent to its release answered.
    out.metric("avg_turnaround_h", median(round_lifetime_h), "h");
    out.metric("avg_comm_cost",
               priced > 0 ? cost_sum / static_cast<double>(priced) : 0.0,
               "cost");
    out.note("latency_samples", static_cast<double>(latency_samples));
    out.note("latency_samples_per_round", static_cast<double>(round_requests));
    out.note("latency_op", "one request, sent to reply received");
    out.note("rounds", static_cast<double>(timed_rounds));
    return out;
  }

  const double n = static_cast<double>(timed_requests);
  const double service_us = service_s * 1e6 / n;
  const double codec_ns = codec_s * 1e9 / n;
  out.metric("serve.codec.ns_per_req", codec_ns, "ns");
  out.metric("serve.service.us_per_req", service_us, "us");
  out.metric("serve.transport.us_per_req",
             1e6 / ops_per_s - service_us - codec_ns * 1e-3, "us");
  // Little's law: throughput times mean time in the system.
  out.metric("serve.inflight_mean",
             n / timed_s * latency_sum_us * 1e-6 /
                 static_cast<double>(latency_samples),
             "count");
  out.metric("serve.rejected", static_cast<double>(counters.rejected), "count");
  out.metric("serve.timeouts", static_cast<double>(counters.timeouts), "count");
  out.metric("serve.no_fit", static_cast<double>(counters.no_fit), "count");
  out.metric("serve.idempotent_hits",
             static_cast<double>(counters.idempotent_hits), "count");
  out.metric("serve.daemon.cpu_s", cpu_seconds(ru), "s");
  out.metric("serve.daemon.vol_switches_per_req",
             static_cast<double>(ru.ru_nvcsw) / static_cast<double>(sent),
             "count");
  // The in-process service reproduced every daemon reply bit for bit.
  out.metric("trace.shadow_match", same_log ? 1.0 : 0.0, "bool");
  for (const auto& [name, unit] : kReplayLayers) out.metric(name, 0.0, unit);
  return out;
}

}  // namespace perfbench
