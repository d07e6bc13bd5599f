// Replay workloads: synthetic job logs run through run_continuous.
//
//   replay-adaptive  Theta tree, 64 Theta logs decorated with experiment
//                    set C, adaptive allocator, FIFO + EASY
//   replay-sa        the same logs, simulated-annealing allocator
//   replay-backlog   16x32 tree, 4 undecorated scaled Theta logs, default
//                    allocator, SJF + EASY (event loop only, no pricing)
//
// The timed region replays every log in turn until the budget is spent and
// reports whole-replay throughput from each log's median replay, and the
// per-start scheduling latency percentiles of the median pass. The traced
// run replays the recorded start/end events against a private copy of every
// layer (the "shadow"), timing each public call as a span and checking it
// reproduces the simulator's costs bit for bit.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "common.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "core/default_allocator.hpp"
#include "core/degradation_model.hpp"
#include "core/sa_allocator.hpp"
#include "metrics/summary.hpp"
#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using namespace commsched;

// Per-layer metrics of serve-closed, which an in-process replay does not
// exercise; replays report them as 0.
constexpr std::pair<const char*, const char*> kServeLayers[] = {
    {"serve.codec.ns_per_req", "ns"},
    {"serve.service.us_per_req", "us"},
    {"serve.transport.us_per_req", "us"},
    {"serve.inflight_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.timeouts", "count"},
    {"serve.no_fit", "count"},
    {"serve.idempotent_hits", "count"},
    {"serve.daemon.cpu_s", "s"},
    {"serve.daemon.vol_switches_per_req", "count"},
};

struct ReplaySpec {
  bool theta = true;     ///< Theta tree + log, else a 16x32 tree
  bool decorate = true;  ///< apply experiment set C
  AllocatorKind allocator = AllocatorKind::kAdaptive;
  QueuePolicy queue = QueuePolicy::kFifo;
  int logs = 1;          ///< independent logs replayed in rotation
  int jobs = 0;          ///< generated length of each log
};

ReplaySpec spec_for(const std::string& workload, bool small) {
  ReplaySpec spec;
  // A backlogged log's mean turnaround varies by a fifth from seed to seed,
  // so a run replays many independent logs ("slices") and pools them.
  if (workload == "replay-adaptive") {
    spec.logs = small ? 2 : 64;
    spec.jobs = small ? 300 : 500;
  } else if (workload == "replay-sa") {
    // replay-adaptive's logs. An sa replay's cost is set by its few large
    // communication jobs, so it varies from log to log: over 32 logs the
    // throughput of one seed differed from the next by up to a fifth.
    spec.allocator = AllocatorKind::kSa;
    spec.logs = small ? 2 : 64;
    spec.jobs = small ? 150 : 500;
  } else if (workload == "replay-backlog") {
    spec.theta = false;
    spec.decorate = false;
    spec.allocator = AllocatorKind::kDefault;
    spec.queue = QueuePolicy::kShortestJobFirst;
    spec.logs = small ? 1 : 4;
    spec.jobs = small ? 1000 : 20000;
  } else {
    throw std::invalid_argument("unknown replay workload " + workload);
  }
  return spec;
}

struct Inputs {
  Tree tree;
  std::vector<JobLog> logs;
};

constexpr int kBacklogLeaves = 16;
constexpr int kBacklogNodesPerLeaf = 32;

// Log i draws from splitmix64(seed ^ splitmix64(i)): the Theta logs as
// exp::paper_machine("Theta") builds them (power-of-two jobs) decorated with
// experiment set C, the backlog log undecorated on a Theta profile scaled
// to its 512-node tree.
Inputs build_inputs(const ReplaySpec& spec, std::uint64_t seed) {
  Inputs in{spec.theta ? make_theta()
                       : make_two_level_tree(kBacklogLeaves,
                                             kBacklogNodesPerLeaf),
            {}};
  const LogProfile profile =
      spec.theta ? theta_profile()
                 : scale_profile(theta_profile(),
                                 kBacklogLeaves * kBacklogNodesPerLeaf);
  for (int i = 0; i < spec.logs; ++i) {
    const std::uint64_t log_seed =
        splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i)));
    JobLog log = generate_log(profile, spec.jobs, log_seed);
    if (spec.theta) log = filter_power_of_two(log);
    if (spec.decorate)
      apply_mix(log, experiment_set('C'), splitmix64(log_seed));
    in.logs.push_back(std::move(log));
  }
  return in;
}

SchedOptions sched_options(const ReplaySpec& spec) {
  SchedOptions options;
  options.allocator = spec.allocator;
  options.queue_policy = spec.queue;
  options.easy_backfill = true;
  options.audit = AuditLevel::kOff;
  return options;
}

std::vector<std::size_t> index_by_id(const JobLog& log) {
  WorkloadJobId max_id = 0;
  for (const JobRecord& j : log) max_id = std::max(max_id, j.id);
  std::vector<std::size_t> index(static_cast<std::size_t>(max_id) + 1,
                                 log.size());
  for (std::size_t i = 0; i < log.size(); ++i)
    index[static_cast<std::size_t>(log[i].id)] = i;
  return index;
}

// Trace invariants: time never runs backwards, every job is submitted,
// started no earlier than its submit and ended exactly once, and the running
// jobs never hold more nodes than the machine has. Events are emitted in
// the order the simulator mutates its state, so the running node count is
// exact at every event.
void check_trace(const Tree& tree, const JobLog& log, const SimResult& result,
                 const std::vector<TraceEvent>& events, Outcome& out) {
  const std::vector<std::size_t> index = index_by_id(log);
  std::vector<std::uint8_t> phase(log.size(), 0);  // 0 new .. 3 ended
  std::vector<double> submit_t(log.size(), 0.0), start_t(log.size(), 0.0);
  long long running = 0;
  long long peak = 0;
  double last_t = -INFINITY;
  bool ordered = true, lifecycle = true, matches_result = true;
  for (const TraceEvent& ev : events) {
    ordered = ordered && ev.time >= last_t;
    last_t = ev.time;
    const std::size_t idx = ev.job >= 0 && static_cast<std::size_t>(ev.job) <
                                               index.size()
                                ? index[static_cast<std::size_t>(ev.job)]
                                : log.size();
    if (idx >= log.size()) {
      lifecycle = false;
      continue;
    }
    switch (ev.kind) {
      case TraceEvent::Kind::kSubmit:
        lifecycle = lifecycle && phase[idx] == 0;
        phase[idx] = 1;
        submit_t[idx] = ev.time;
        break;
      case TraceEvent::Kind::kStart:
        lifecycle = lifecycle && phase[idx] == 1 && ev.time >= submit_t[idx];
        phase[idx] = 2;
        start_t[idx] = ev.time;
        running += ev.num_nodes;
        peak = std::max(peak, running);
        matches_result = matches_result &&
                         result.jobs[idx].start_time == ev.time;
        break;
      case TraceEvent::Kind::kEnd:
        lifecycle = lifecycle && phase[idx] == 2 && ev.time >= start_t[idx];
        phase[idx] = 3;
        running -= ev.num_nodes;
        matches_result = matches_result && result.jobs[idx].end_time == ev.time;
        break;
    }
  }
  bool all_ended = true;
  for (const std::uint8_t p : phase) all_ended = all_ended && p == 3;
  out.check(ordered, "trace: event times decrease");
  out.check(lifecycle, "trace: a job started before its submit or twice");
  out.check(all_ended, "trace: a job never ended");
  out.check(peak <= tree.node_count(), "trace: machine oversubscribed");
  out.check(running == 0, "trace: nodes still held after the last event");
  out.check(matches_result, "trace: event times differ from the SimResult");
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct ShadowResult {
  std::uint64_t starts = 0;
  std::uint64_t mismatches = 0;  ///< priced starts differing from the sim
  std::uint64_t failed_selects = 0;
  std::uint64_t sa_proposals = 0;
  std::uint64_t sa_accepts = 0;
  double guard_cost_sum = 0.0;   ///< post-hoc recursive-doubling pricing
  std::uint64_t guard_priced = 0;
};

// Span job ids are log_index * kSpanJobStride + the log's job id.
constexpr std::int64_t kSpanJobStride = 1'000'000;

// Replays the recorded events against private layer instances, pricing each
// start exactly as the simulator's start_job does. With a tracer, every
// public call is a span whose parent is the job's "sched.start" span. With
// guard_price (compute-only logs), each multi-node placement is also priced
// as a recursive-doubling job, untraced, to give the log a placement-quality
// figure.
ShadowResult shadow_replay(const Tree& tree, const JobLog& log,
                           std::int64_t span_job_base, const ReplaySpec& spec,
                           const SchedOptions& options,
                           const std::vector<TraceEvent>& events,
                           const SimResult& sim, Tracer* tracer,
                           bool guard_price) {
  ClusterState state(tree);
  auto cache = std::make_shared<CommCache>(log.front().msize);
  const std::unique_ptr<Allocator> allocator = make_allocator(
      spec.allocator, options.cost_options, cache, options.sa);
  const auto* sa = dynamic_cast<const SaAllocator*>(allocator.get());
  const DefaultAllocator default_allocator;
  const CostModel pricing_model(tree, options.cost_options);
  const CostModel metric_model(
      tree, CostOptions{.hop_bytes = false,
                        .include_candidate =
                            options.cost_options.include_candidate});
  CostWorkspace workspace;
  const std::vector<std::size_t> index = index_by_id(log);
  std::vector<std::int64_t> start_span(log.size(), -1);
  std::vector<NodeId> nodes, default_nodes, freed;
  const bool is_default = spec.allocator == AllocatorKind::kDefault;

  // Time `fn` as a span when tracing; plain call otherwise.
  const auto timed = [tracer, span_job_base](const char* name,
                                             std::int64_t parent,
                                             std::int64_t job, auto&& fn) {
    if (tracer == nullptr) return fn();
    const std::int64_t id = tracer->begin(name, parent, span_job_base + job);
    auto result = fn();
    tracer->end(id);
    return result;
  };

  ShadowResult r;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEvent::Kind::kSubmit) continue;
    const std::size_t idx = index[static_cast<std::size_t>(ev.job)];
    const JobRecord& job = log[idx];
    const JobId jid = static_cast<JobId>(idx) + 1;  // the simulator's id
    if (ev.kind == TraceEvent::Kind::kEnd) {
      timed("cluster.state", start_span[idx], ev.job, [&] {
        state.release_into(jid, freed);
        return 0;
      });
      continue;
    }
    ++r.starts;
    const std::int64_t parent =
        tracer != nullptr
            ? tracer->begin("sched.start", -1, span_job_base + ev.job)
            : -1;
    start_span[idx] = parent;
    AllocationRequest request;
    request.job = jid;
    request.num_nodes = job.num_nodes;
    request.comm_intensive = job.comm_intensive;
    request.pattern = job.pattern;
    request.msize = job.msize;
    request.io_intensive = job.io_intensive;
    request.comm_fraction = job.comm_fraction;
    request.io_fraction = job.io_fraction;
    const bool price_comm = job.comm_intensive && job.num_nodes >= 2;

    if (!timed("core.select", parent, ev.job, [&] {
          return allocator->select_into(state, request, nodes);
        })) {
      ++r.failed_selects;
      if (tracer != nullptr) tracer->end(parent);
      continue;
    }
    if (sa != nullptr) {
      r.sa_proposals += static_cast<std::uint64_t>(sa->last_proposals());
      r.sa_accepts += static_cast<std::uint64_t>(sa->last_accepts());
    }
    if (!is_default && price_comm &&
        !timed("core.select_default", parent, ev.job, [&] {
          return default_allocator.select_into(state, request, default_nodes);
        }))
      ++r.failed_selects;

    double cost = 0.0, cost_default = 0.0;
    if (price_comm) {
      const LeafCommProfile& profile =
          *timed("collectives.profile", parent, ev.job, [&] {
            return &cache->profile(job.pattern, 1, make_shape_key(tree, nodes));
          });
      cost = timed("core.cost", parent, ev.job, [&] {
        return metric_model.candidate_cost(state, nodes, true, profile,
                                           workspace);
      });
      if (is_default) {
        cost_default = cost;
      } else {
        const LeafCommProfile& default_profile =
            *timed("collectives.profile", parent, ev.job, [&] {
              return &cache->profile(job.pattern, 1,
                                     make_shape_key(tree, default_nodes));
            });
        cost_default = timed("core.cost", parent, ev.job, [&] {
          return metric_model.candidate_cost(state, default_nodes, true,
                                             default_profile, workspace);
        });
        // The Eq. 7 ratio's (hop-byte weighted) pricing pair.
        timed("core.cost", parent, ev.job, [&] {
          return pricing_model.candidate_cost(state, nodes, true, profile,
                                              workspace);
        });
        timed("core.cost", parent, ev.job, [&] {
          return pricing_model.candidate_cost(state, default_nodes, true,
                                              default_profile, workspace);
        });
      }
    }
    const JobResult& simulated = sim.jobs[idx];
    if (!same_bits(cost, simulated.cost) ||
        !same_bits(cost_default, simulated.cost_default) ||
        nodes.size() != static_cast<std::size_t>(job.num_nodes))
      ++r.mismatches;

    if (guard_price && nodes.size() >= 2) {
      const LeafCommProfile& profile = cache->profile(
          Pattern::kRecursiveDoubling, 1, make_shape_key(tree, nodes));
      r.guard_cost_sum +=
          metric_model.candidate_cost(state, nodes, true, profile, workspace);
      ++r.guard_priced;
    }

    const LoadUnits load =
        DegradationModel::quantize_load(price_comm, job.comm_fraction);
    timed("cluster.state", parent, ev.job, [&] {
      state.allocate(jid, job.comm_intensive, nodes, job.io_intensive, load);
      return 0;
    });
    if (tracer != nullptr) tracer->end(parent);
  }
  return r;
}

std::string summary_bits(const RunSummary& s) {
  return std::to_string(std::bit_cast<std::uint64_t>(s.avg_turnaround_hours)) +
         "/" + std::to_string(std::bit_cast<std::uint64_t>(s.avg_cost));
}

}  // namespace

Outcome run_replay(const RunConfig& config) {
  Outcome out;
  const ReplaySpec spec = spec_for(config.workload, config.small);
  const SchedOptions options = sched_options(spec);

  // Set-up: tree + log generation + decoration. The first build feeds the
  // run; the set-up time is the median of it and kRebuildsPerPass rebuilds
  // after every timed pass, so the samples span the run as the replays do.
  constexpr int kRebuildsPerPass = 4;
  std::vector<double> setup_times;
  const auto build = [&] {
    const auto t0 = Clock::now();
    Inputs built = build_inputs(spec, config.seed);
    setup_times.push_back(seconds_since(t0));
    return built;
  };
  const Inputs in = build();
  const std::size_t n_logs = in.logs.size();

  // Untimed reference pass with an event recorder: the correctness checks
  // run on it, and it warms the allocator and page state.
  std::vector<std::vector<TraceEvent>> events(n_logs);
  std::vector<SimResult> reference(n_logs);
  std::vector<std::string> reference_bits(n_logs);
  std::vector<double> recorded_walls(n_logs);
  SimResult pooled;  // every log's jobs, for the pooled outcomes
  const auto recorded_pass = [&] {
    for (std::size_t l = 0; l < n_logs; ++l) {
      SchedOptions recorded = options;
      std::vector<TraceEvent>& log_events = events[l];
      log_events.clear();
      log_events.reserve(in.logs[l].size() * 3);
      recorded.trace = [&log_events](const TraceEvent& ev) {
        log_events.push_back(ev);
      };
      const auto t0 = Clock::now();
      reference[l] = run_continuous(in.tree, in.logs[l], recorded);
      const double wall = seconds_since(t0);
      recorded_walls[l] = recorded_walls[l] > 0.0
                              ? std::min(recorded_walls[l], wall)
                              : wall;
    }
  };
  recorded_pass();
  double jobs = 0.0;
  for (std::size_t l = 0; l < n_logs; ++l) {
    check_trace(in.tree, in.logs[l], reference[l], events[l], out);
    out.check(reference[l].jobs.size() == in.logs[l].size(),
              "result: job count differs from the log");
    reference_bits[l] = summary_bits(summarize(reference[l]));
    pooled.jobs.insert(pooled.jobs.end(), reference[l].jobs.begin(),
                       reference[l].jobs.end());
    jobs += static_cast<double>(in.logs[l].size());
  }
  const RunSummary summary = summarize(pooled);

  // Timed region: passes over every log until the budget is spent. Each
  // replay carries a trace callback that only reads the clock: the gap from
  // the previous event to a job's start event is the scheduling latency of
  // that start (the queue and backfill scans, select, pricing and
  // allocation that produced it). A pass's latency percentiles are taken
  // over every start of every log, so the tail is set by the costliest
  // jobs, not by the noise of a few samples.
  std::vector<std::vector<double>> walls(n_logs);
  std::vector<double> pass_walls, pass_p50_us, pass_p99_us;
  std::vector<double> gaps_us;
  gaps_us.reserve(static_cast<std::size_t>(jobs));
  const auto budget_start = Clock::now();
  bool repeatable = true, every_start = true;
  while (pass_walls.size() < 3 ||
         seconds_since(budget_start) < config.seconds) {
    double pass = 0.0;
    gaps_us.clear();
    for (std::size_t l = 0; l < n_logs; ++l) {
      const std::size_t starts_before = gaps_us.size();
      std::int64_t last_ns = 0;
      SchedOptions timed = options;
      timed.trace = [&gaps_us, &last_ns](const TraceEvent& ev) {
        const std::int64_t t = now_ns();
        if (ev.kind == TraceEvent::Kind::kStart)
          gaps_us.push_back(static_cast<double>(t - last_ns) * 1e-3);
        last_ns = t;
      };
      const auto t0 = Clock::now();
      last_ns = now_ns();
      const SimResult result = run_continuous(in.tree, in.logs[l], timed);
      walls[l].push_back(seconds_since(t0));
      pass += walls[l].back();
      every_start = every_start &&
                    gaps_us.size() - starts_before == in.logs[l].size();
      repeatable = repeatable &&
                   summary_bits(summarize(result)) == reference_bits[l];
    }
    pass_walls.push_back(pass);
    pass_p50_us.push_back(median(gaps_us));
    pass_p99_us.push_back(quantile(gaps_us, 0.99));
    for (int i = 0; i < kRebuildsPerPass; ++i) build();
  }
  out.check(repeatable, "replay: repeated replays differ");
  out.check(every_start, "replay: a timed replay missed a start event");
  out.attempted = static_cast<std::uint64_t>(jobs) * pass_walls.size();
  out.failed = 0;  // run_continuous completes every job or throws
  // A shared host runs this code up to 40% faster in bursts of seconds to
  // minutes. Medians over the run (each log's median replay, the median
  // pass's percentiles) stay in the common mode; the fastest replay lands
  // in a burst in some runs and not in others.
  double wall = 0.0;
  for (const std::vector<double>& w : walls) wall += median(w);

  if (!config.trace) {
    double avg_comm_cost = summary.avg_cost;
    if (!spec.decorate) {
      // Compute-only logs: price their placements as recursive-doubling
      // jobs, to give the schedule a placement-quality figure.
      double guard_sum = 0.0;
      std::uint64_t guard_n = 0;
      for (std::size_t l = 0; l < n_logs; ++l) {
        const ShadowResult guard =
            shadow_replay(in.tree, in.logs[l], 0, spec, options, events[l],
                          reference[l], nullptr, true);
        out.check(guard.failed_selects == 0 && guard.mismatches == 0,
                  "shadow: placement replay diverged");
        guard_sum += guard.guard_cost_sum;
        guard_n += guard.guard_priced;
      }
      avg_comm_cost =
          guard_n > 0 ? guard_sum / static_cast<double>(guard_n) : 0.0;
    }
    out.metric("setup_s", median(setup_times), "s");
    out.metric("ops_per_s", jobs / wall, "1/s");
    out.metric("latency_p50_us", median(pass_p50_us), "us");
    out.metric("latency_p99_us", median(pass_p99_us), "us");
    out.metric("peak_rss_mb", peak_rss_mb_self(), "MB");
    out.metric("avg_turnaround_h", summary.avg_turnaround_hours, "h");
    out.metric("avg_comm_cost", avg_comm_cost, "cost");
    out.note("latency_samples", jobs);
    out.note("latency_op",
             "previous trace event to a job's start event; median pass");
    out.note("logs", static_cast<double>(n_logs));
    out.note("jobs", jobs);
    out.note("passes", static_cast<double>(pass_walls.size()));
    return out;
  }

  // Traced run. The recorder's cost: the fastest of three recorded replays
  // of each log against its fastest timed one (whose callback only reads
  // the clock).
  recorded_pass();
  recorded_pass();
  double recorded = 0.0, fastest = 0.0;
  for (const double w : recorded_walls) recorded += w;
  for (const std::vector<double>& w : walls) fastest += quantile(w, 0.0);
  out.metric("trace.overhead_frac", (recorded - fastest) / fastest, "ratio");

  // Shadow replays with spans.
  Tracer tracer;
  ShadowResult shadow;
  std::uint64_t lookups = 0, misses = 0;
  for (std::size_t l = 0; l < n_logs; ++l) {
    const ShadowResult r = shadow_replay(
        in.tree, in.logs[l], static_cast<std::int64_t>(l) * kSpanJobStride,
        spec, options, events[l], reference[l], &tracer, false);
    shadow.starts += r.starts;
    shadow.mismatches += r.mismatches;
    shadow.failed_selects += r.failed_selects;
    shadow.sa_proposals += r.sa_proposals;
    shadow.sa_accepts += r.sa_accepts;
    const CacheStats& cs = reference[l].cache_stats;
    lookups += cs.profile_hits + cs.profile_misses;
    misses += cs.profile_misses;
  }
  const bool match = shadow.failed_selects == 0 && shadow.mismatches == 0 &&
                     shadow.starts == pooled.jobs.size();
  out.check(match, "shadow: replay does not reproduce the simulator");
  const auto layers = tracer.layers();
  const auto& select = find_layer(layers, "core.select");
  const auto& select_default = find_layer(layers, "core.select_default");
  const auto& cost = find_layer(layers, "core.cost");
  const auto& profile = find_layer(layers, "collectives.profile");
  const auto& cluster = find_layer(layers, "cluster.state");
  const double busy = select.self_s + select_default.self_s + cost.self_s +
                      profile.self_s + cluster.self_s;

  out.metric("core.select.calls", static_cast<double>(select.calls), "count");
  out.metric("core.select.s", select.self_s, "s");
  out.metric("core.select.p99_us", quantile(select.durations_us, 0.99), "us");
  out.metric("core.select_default.s", select_default.self_s, "s");
  out.metric("core.cost.calls", static_cast<double>(cost.calls), "count");
  out.metric("core.cost.s", cost.self_s, "s");
  out.metric("collectives.profile.lookups", static_cast<double>(lookups),
             "count");
  out.metric("collectives.profile.misses", static_cast<double>(misses),
             "count");
  out.metric("collectives.profile.hit_rate",
             lookups > 0 ? 1.0 - static_cast<double>(misses) /
                                     static_cast<double>(lookups)
                         : 0.0,
             "ratio");
  out.metric("collectives.profile.s", profile.self_s, "s");
  const auto proposals = static_cast<double>(shadow.sa_proposals);
  out.metric("core.sa.proposals", proposals, "count");
  out.metric("core.sa.accepts", static_cast<double>(shadow.sa_accepts), "count");
  out.metric("core.sa.accept_ratio",
             proposals > 0 ? static_cast<double>(shadow.sa_accepts) / proposals
                           : 0.0,
             "ratio");
  out.metric("core.sa.ns_per_proposal",
             proposals > 0 ? select.self_s * 1e9 / proposals : 0.0, "ns");
  out.metric("cluster.state.calls", static_cast<double>(cluster.calls), "count");
  out.metric("cluster.state.s", cluster.self_s, "s");
  out.metric("sched.starts", static_cast<double>(shadow.starts), "count");
  // The event loop, queue and backfill scans, and the failed selects of
  // backfill trials: the replay time no shadowed call accounts for, against
  // each log's median replay. Its spread (IQR of whole passes) is of the
  // same order on some workloads.
  out.metric("sched.residual_s", wall - busy, "s");
  out.metric("sched.residual_iqr_s",
             quantile(pass_walls, 0.75) - quantile(pass_walls, 0.25), "s");
  out.metric("trace.shadow_match", match ? 1.0 : 0.0, "bool");
  for (const auto& [name, unit] : kServeLayers) out.metric(name, 0.0, unit);
  out.note("replay_wall_s", wall);
  out.note("shadow_busy_s", busy);
  const std::string spans_path =
      config.out_dir + "/spans-" + config.workload + ".jsonl";
  out.check(tracer.write_jsonl(spans_path), "cannot write " + spans_path);
  out.note("spans", spans_path);
  return out;
}

}  // namespace perfbench
