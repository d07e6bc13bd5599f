#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "util/json.hpp"

namespace perfbench {

void Outcome::note(const std::string& key, double value) {
  notes.emplace_back(key, commsched::json_number(value));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double calib_ms() {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-6;
    }
    runs.push_back(seconds_since(t0) * 1e3);
    // Keep the loop observable so it cannot be folded away.
    if (acc < 0.0) runs.back() = -1.0;
  }
  return median(runs);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::pair<std::string, Tracer::Layer>> Tracer::layers() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, Layer> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& layer = by_name[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++layer.calls;
    layer.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    layer.durations_us.push_back(static_cast<double>(dur) * 1e-3);
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}\n";
  return static_cast<bool>(out);
}

const Tracer::Layer& find_layer(
    const std::vector<std::pair<std::string, Tracer::Layer>>& layers,
    const std::string& name) {
  static const Tracer::Layer kEmpty;
  for (const auto& [layer_name, layer] : layers)
    if (layer_name == name) return layer;
  return kEmpty;
}

}  // namespace perfbench
