// Host and checkout identity for BENCH_*.json snapshots, so each one says
// which machine and code it measured.
#pragma once

#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>

namespace commsched {

// The first "model name" of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t start =
        line.find_first_not_of(" \t", line.find(':') + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

// `git describe --always --dirty` of the working directory, or "unknown"
// outside a git checkout.
inline std::string source_commit() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char line[128] = {};
  const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
  pclose(pipe);
  std::string id = got ? line : "";
  while (!id.empty() && std::isspace(static_cast<unsigned char>(id.back())))
    id.pop_back();
  return id.empty() ? "unknown" : id;
}

}  // namespace commsched
