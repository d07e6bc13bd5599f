// Allocator-service bench: end-to-end daemon latency and throughput under
// the deterministic load generator (DESIGN.md "Allocator service").
//
// Starts an in-process event-loop server on a unix socket and replays four
// scenarios against it, each a deterministic stream from serve/loadgen:
//
//   throughput   default limits, pipeline window < queue depth, so zero
//                rejections by construction — the headline p50/p95/p99
//   bursty       open-loop pacing with sinusoidal bursts + a per-request
//                deadline, the paper-style arrival process
//   overload     queue_depth 8 against a window of 256 — admission control
//                must convert the excess into explicit kRejected replies;
//                the outcome counts must sum exactly to the stream length
//   sa           the simulated-annealing policy end to end (smaller
//                stream; sa prices hundreds of candidates per request)
//
// Environment knobs (CI smoke leg):
//   COMMSCHED_SERVE_REQS     stream length for the throughput scenario
//                            (default 200000; CI uses 10000)
//   COMMSCHED_SERVE_P99_MS   fail (exit 1) if the throughput scenario's
//                            p99 exceeds this many milliseconds
//
// Exits nonzero on any replay failure, unexpected rejection, or count
// mismatch. Writes BENCH_serve.json at the cwd (run from the repo root),
// recording the host CPU model, its core count and the checkout's commit.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/allocator_factory.hpp"
#include "host_info.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "topology/builders.hpp"
#include "util/json.hpp"

namespace commsched {
namespace {

struct ScenarioResult {
  std::string name;
  std::size_t requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;  // microseconds
  serve::ReplayResult replay;
  bool failed = false;
};

ScenarioResult run_scenario(const std::string& name, const Tree& tree,
                            const serve::ServiceOptions& service_options,
                            serve::ServerOptions server_options,
                            const serve::LoadSpec& spec,
                            const serve::ReplayOptions& replay_options) {
  ScenarioResult result;
  result.name = name;
  server_options.socket_path = "/tmp/commsched_bench_serve_" +
                               std::to_string(::getpid()) + ".sock";
  serve::Server server(tree, service_options, server_options);
  if (!server.start()) {
    std::cerr << "bench_serve: " << name << ": " << server.error() << "\n";
    result.failed = true;
    return result;
  }
  serve::Client client;
  if (!client.connect(server_options.socket_path)) {
    std::cerr << "bench_serve: " << name << ": " << client.error() << "\n";
    result.failed = true;
    return result;
  }
  const serve::LoadStream stream = build_stream(spec, tree.node_count());
  result.requests = stream.requests.size();
  const auto t0 = std::chrono::steady_clock::now();
  result.replay = serve::replay(client, stream, replay_options);
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  client.close();
  server.drain();
  result.requests_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.requests) / result.seconds
          : 0.0;
  result.p50 = result.replay.latency.percentile(50.0);
  result.p95 = result.replay.latency.percentile(95.0);
  result.p99 = result.replay.latency.percentile(99.0);
  result.max = result.replay.latency.max();
  const std::uint64_t accounted = result.replay.ok + result.replay.no_fit +
                                  result.replay.rejected +
                                  result.replay.timeouts + result.replay.bad +
                                  result.replay.other;
  if (!result.replay.complete || accounted != result.requests) {
    std::cerr << "bench_serve: " << name << ": incomplete replay ("
              << accounted << "/" << result.requests << " accounted, "
              << result.replay.io_errors << " io errors)\n";
    result.failed = true;
  }
  std::printf(
      "%-10s %8zu reqs  %9.0f req/s  p50=%6llu us  p95=%6llu us  "
      "p99=%6llu us  ok=%llu no_fit=%llu rejected=%llu timeout=%llu\n",
      name.c_str(), result.requests, result.requests_per_sec,
      static_cast<unsigned long long>(result.p50),
      static_cast<unsigned long long>(result.p95),
      static_cast<unsigned long long>(result.p99),
      static_cast<unsigned long long>(result.replay.ok),
      static_cast<unsigned long long>(result.replay.no_fit),
      static_cast<unsigned long long>(result.replay.rejected),
      static_cast<unsigned long long>(result.replay.timeouts));
  return result;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  // thread-safe: read once at startup before any threads exist
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

int run() {
  const Tree tree = make_two_level_tree(32, 16);  // 512 nodes
  const std::size_t requests =
      env_size("COMMSCHED_SERVE_REQS", 200000);
  const std::size_t p99_ms = env_size("COMMSCHED_SERVE_P99_MS", 0);

  serve::ServiceOptions service_options;  // adaptive policy, stock pricing
  std::vector<ScenarioResult> results;

  {
    serve::ServerOptions server_options;  // queue 1024 >> window 64
    serve::LoadSpec spec;
    spec.requests = requests;
    serve::ReplayOptions replay_options;
    replay_options.window = 64;
    results.push_back(run_scenario("throughput", tree, service_options,
                                   server_options, spec, replay_options));
    if (results.back().replay.rejected != 0 ||
        results.back().replay.timeouts != 0) {
      std::cerr << "bench_serve: throughput scenario saw rejections or "
                   "timeouts at default limits\n";
      results.back().failed = true;
    }
  }
  {
    serve::ServerOptions server_options;
    serve::LoadSpec spec;
    spec.requests = std::min<std::size_t>(requests, 20000);
    spec.arrival_rate = 20000.0;
    spec.burstiness = 0.8;
    spec.burst_period = 2000.0;
    spec.deadline_ms = 100;
    serve::ReplayOptions replay_options;
    replay_options.window = 64;
    replay_options.paced = true;
    results.push_back(run_scenario("bursty", tree, service_options,
                                   server_options, spec, replay_options));
  }
  {
    serve::ServerOptions server_options;
    server_options.queue_depth = 8;
    serve::LoadSpec spec;
    spec.requests = std::min<std::size_t>(requests, 50000);
    serve::ReplayOptions replay_options;
    replay_options.window = 256;  // >> queue depth: force admission control
    results.push_back(run_scenario("overload", tree, service_options,
                                   server_options, spec, replay_options));
  }
  {
    serve::ServiceOptions sa_options;
    sa_options.default_allocator = AllocatorKind::kSa;
    sa_options.sa.budget = 64;  // keep the CI leg affordable
    serve::ServerOptions server_options;
    serve::LoadSpec spec;
    spec.requests = std::min<std::size_t>(requests, 5000);
    serve::ReplayOptions replay_options;
    replay_options.window = 64;
    results.push_back(run_scenario("sa", tree, sa_options, server_options,
                                   spec, replay_options));
  }

  std::ofstream json("BENCH_serve.json");
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"machine\": \"two-level tree, 32 leaves x 16 nodes\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"metric\": \"request latency (us) and throughput through the "
          "allocd event-loop server over a unix socket\",\n"
       << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"requests\": "
         << r.requests << ", \"seconds\": " << json_number(r.seconds)
         << ", \"requests_per_sec\": " << json_number(r.requests_per_sec)
         << ", \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
         << ", \"p99_us\": " << r.p99 << ", \"max_us\": " << r.max
         << ", \"ok\": " << r.replay.ok << ", \"no_fit\": " << r.replay.no_fit
         << ", \"rejected\": " << r.replay.rejected
         << ", \"timeouts\": " << r.replay.timeouts
         << ", \"bad\": " << r.replay.bad << ", \"other\": " << r.replay.other
         << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_serve.json\n";

  for (const ScenarioResult& r : results)
    if (r.failed) {
      std::cerr << "FAIL: scenario " << r.name << "\n";
      return 1;
    }
  if (p99_ms > 0 && results.front().p99 > p99_ms * 1000) {
    std::cerr << "FAIL: throughput p99 " << results.front().p99
              << " us exceeds COMMSCHED_SERVE_P99_MS=" << p99_ms << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace commsched

int main() { return commsched::run(); }
