// Shared pieces of the perfbench binary: run configuration,
// metric collection and printing, order statistics, process probes and the
// in-memory span tracer used by the traced (per-layer) runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced inputs for the benchmark's self-test (not for measurement).
  bool small = false;
  std::string allocd_path;  ///< allocd binary (serve-closed)
  std::string conf_path;    ///< slurm.conf handed to allocd
  std::string out_dir;      ///< spans and sockets go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict, operation
/// counts, the metrics of the requested kind, and run metadata.
struct Outcome {
  std::vector<std::string> problems;  ///< failed checks, empty = correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< metadata

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
};

/// Linear-interpolated quantile (q in [0,1]) of `values`, as
/// numpy.quantile's default; 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Machine drift probe: wall milliseconds of a fixed integer/float loop that
/// uses no repository code (median of three). Reported, never used to
/// normalise anything.
double calib_ms();

double process_cpu_s();       ///< user + system CPU of this process
double peak_rss_mb_self();    ///< ru_maxrss of this process, MiB

/// In-memory span recorder for the shadow replays. A span is one timed
/// call at a layer boundary; spans of one job share its id and point at the
/// job's parent span. Nothing is written until write_jsonl().
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the parent span, -1 = root
    std::int64_t job = 0;
  };

  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Open a span; returns its index for end() and as a parent id.
  std::int64_t begin(const char* name, std::int64_t parent, std::int64_t job) {
    spans_.push_back({name, now_ns(), 0, parent, job});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  struct Layer {
    std::uint64_t calls = 0;
    double self_s = 0.0;               ///< duration minus child spans
    std::vector<double> durations_us;  ///< per call, for percentiles
  };
  /// Self time and call counts of every span name.
  std::vector<std::pair<std::string, Layer>> layers() const;
  /// One JSON object per span: name, start/end ns, parent index, job id.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Find a layer by name in Tracer::layers() output (empty layer if absent).
const Tracer::Layer& find_layer(
    const std::vector<std::pair<std::string, Tracer::Layer>>& layers,
    const std::string& name);

Outcome run_replay(const RunConfig& config);
Outcome run_serve(const RunConfig& config);

}  // namespace perfbench
