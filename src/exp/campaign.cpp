#include "exp/campaign.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "exp/sink.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace commsched::exp {

namespace detail {

// SplitMix64 finalizer: a strong 64-bit mixer, stable across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Absorb a string into the running hash (FNV-1a style), then re-mix so
// short labels still diffuse into all 64 bits.
std::uint64_t absorb(std::uint64_t h, std::string_view s) {
  for (const char c : s)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return mix64(h);
}

}  // namespace detail

namespace {

using detail::absorb;
using detail::mix64;

// Domain-separation tags so a mix seed can never collide with a cell seed
// built from the same labels.
constexpr std::uint64_t kMixDomain = 0x636f6d6d2d6d6978ULL;   // "comm-mix"
constexpr std::uint64_t kCellDomain = 0x63616d7063656c6cULL;  // "campcell"

bool quiet_env() {
  const char* v = std::getenv("COMMSCHED_QUIET");
  return v != nullptr && *v != '\0';
}

// Explicit spec.stream_path wins; otherwise COMMSCHED_STREAM_DIR opts any
// campaign harness into streaming (<dir>/<name>[.s<i>of<N>].jsonl); empty
// means no persistence.
std::string resolve_stream_path(const CampaignSpec& spec,
                                const ShardConfig& shard) {
  if (!spec.stream_path.empty()) return spec.stream_path;
  const char* dir = std::getenv("COMMSCHED_STREAM_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  std::string path = std::string(dir) + "/" + spec.name;
  if (shard.count > 1)
    path += ".s" + std::to_string(shard.index) + "of" +
            std::to_string(shard.count);
  path += ".jsonl";
  return path;
}

std::uint64_t resolve_base_seed(const CampaignSpec& spec, std::size_t index) {
  return spec.base_seeds.empty() ? base_seed() : spec.base_seeds[index];
}

CellResult run_cell(const CampaignSpec& spec, const CellCoord& c) {
  const MachineCase& machine = spec.machines[c.machine];
  const MixSpec& mix = spec.mixes[c.mix];
  const AllocatorKind kind = spec.allocators[c.allocator];
  const OptionsVariant& variant = spec.variants[c.variant];

  CellResult out;
  out.coord = c;
  out.machine = machine.name;
  out.mix = mix.name;
  out.allocator = allocator_kind_name(kind);
  out.variant = variant.name;
  out.base_seed = resolve_base_seed(spec, c.seed);
  out.mix_seed = derive_mix_seed(out.base_seed, machine.name, mix.name);
  out.cell_seed =
      derive_cell_seed(out.base_seed, machine.name, mix.name, out.allocator);

  // Per-cell log copy (decoration mutates); the Tree stays shared.
  JobLog log = machine.base_log;
  apply_mix(log, mix, out.mix_seed);

  SchedOptions options = variant.options;
  options.allocator = kind;
  // The SA policy's anneal stream is decorrelated per cell the same way the
  // workload is: identical cells replay identically, different cells never
  // share an anneal trajectory.
  options.sa.seed = mix64(options.sa.seed ^ out.cell_seed);
  out.sim = run_continuous(machine.tree, log, options);
  out.summary = summarize(out.sim);
  return out;
}

}  // namespace

std::vector<CellCoord> CampaignSpec::cells() const {
  const std::size_t n_seeds = base_seeds.empty() ? 1 : base_seeds.size();
  std::vector<CellCoord> coords;
  for (std::size_t m = 0; m < machines.size(); ++m)
    for (std::size_t x = 0; x < mixes.size(); ++x)
      for (std::size_t a = 0; a < allocators.size(); ++a)
        for (std::size_t s = 0; s < n_seeds; ++s)
          for (std::size_t v = 0; v < variants.size(); ++v) {
            const CellCoord c{m, x, a, s, v};
            if (!filter || filter(*this, c)) coords.push_back(c);
          }
  return coords;
}

const CellResult* CampaignResult::find(std::size_t machine, std::size_t mix,
                                       std::size_t allocator,
                                       std::size_t seed,
                                       std::size_t variant) const {
  const CellCoord wanted{machine, mix, allocator, seed, variant};
  for (const CellResult& cell : cells)
    if (cell.coord == wanted) return &cell;
  return nullptr;
}

const CellResult& CampaignResult::at(std::size_t machine, std::size_t mix,
                                     std::size_t allocator, std::size_t seed,
                                     std::size_t variant) const {
  const CellResult* cell = find(machine, mix, allocator, seed, variant);
  COMMSCHED_ASSERT_MSG(cell != nullptr,
                       "no such campaign cell (filtered out or out of range)");
  return *cell;
}

std::uint64_t derive_mix_seed(std::uint64_t base, std::string_view machine,
                              std::string_view mix) {
  std::uint64_t h = mix64(base ^ kMixDomain);
  h = absorb(h, machine);
  h = absorb(h, mix);
  return h;
}

std::uint64_t derive_cell_seed(std::uint64_t base, std::string_view machine,
                               std::string_view mix,
                               std::string_view allocator) {
  std::uint64_t h = mix64(base ^ kCellDomain);
  h = absorb(h, machine);
  h = absorb(h, mix);
  h = absorb(h, allocator);
  return h;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {
  COMMSCHED_ASSERT_MSG(!spec_.machines.empty(), "campaign needs machines");
  COMMSCHED_ASSERT_MSG(!spec_.mixes.empty(), "campaign needs mixes");
  COMMSCHED_ASSERT_MSG(!spec_.allocators.empty(), "campaign needs allocators");
  COMMSCHED_ASSERT_MSG(!spec_.variants.empty(), "campaign needs >= 1 variant");
}

CampaignResult CampaignRunner::run() {
  const std::vector<CellCoord> coords = spec_.cells();
  const std::size_t total = coords.size();

  // Process sharding: this process owns the cells whose deterministic
  // label hash lands on its shard (exp/sink.hpp). Unsharded runs own all.
  const ShardConfig shard = resolve_shard(spec_);
  std::vector<char> is_mine(total, 1);
  std::vector<std::size_t> mine;
  mine.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (shard.count > 1 &&
        shard_of_cell(spec_, coords[i], shard.count) != shard.index)
      is_mine[i] = 0;
    else
      mine.push_back(i);
  }

  std::vector<std::optional<CellResult>> slots(total);

  // Persistence: resume from a matching stream, then append new cells.
  const std::string stream_path = resolve_stream_path(spec_, shard);
  std::unique_ptr<CampaignSink> sink;
  std::size_t resumed_count = 0;
  if (!stream_path.empty()) {
    StreamHeader header;
    header.spec_name = spec_.name;
    header.fingerprint = spec_fingerprint(spec_);
    header.total_cells = total;
    header.shard = shard;

    bool fresh = !spec_.resume;
    if (spec_.resume && std::filesystem::exists(stream_path)) {
      std::uint64_t valid_bytes = 0;
      (void)read_complete_lines(stream_path, &valid_bytes);
      if (valid_bytes == 0) {
        // Zero complete lines: either a new empty file or a crash before
        // the header landed. Start over (truncating partial bytes).
        fresh = true;
      } else {
        const CampaignStream stream = load_stream(stream_path);
        COMMSCHED_ASSERT_MSG(
            stream.header.spec_name == spec_.name &&
                stream.header.fingerprint == header.fingerprint &&
                stream.header.total_cells == total,
            "existing stream '" + stream_path + "' was written by a "
            "different campaign spec; delete it or set resume = false");
        COMMSCHED_ASSERT_MSG(
            stream.header.shard == shard,
            "existing stream '" + stream_path + "' belongs to shard " +
                std::to_string(stream.header.shard.index) + "/" +
                std::to_string(stream.header.shard.count) +
                ", not this process's shard");
        for (const StreamedCell& cell : stream.cells) {
          COMMSCHED_ASSERT_MSG(cell.cell_index < total && is_mine[cell.cell_index],
                               "streamed cell does not belong to this shard");
          COMMSCHED_ASSERT_MSG(cell.result.coord == coords[cell.cell_index],
                               "streamed cell coordinates disagree with the "
                               "spec's cell list");
          COMMSCHED_ASSERT_MSG(!slots[cell.cell_index].has_value(),
                               "cell appears twice in the stream");
          slots[cell.cell_index].emplace(cell.result);
          ++resumed_count;
        }
        // Drop a partial trailing line (SIGKILL mid-append) so the file
        // stays a clean sequence of complete records.
        AppendFile trunc(stream_path);
        if (trunc.size() > stream.valid_bytes)
          trunc.truncate_to(stream.valid_bytes);
      }
    }
    sink = std::make_unique<CampaignSink>(stream_path, header, fresh);
  }

  std::vector<std::size_t> runs;  // owned cells not resumed, in cell order
  for (const std::size_t i : mine)
    if (!slots[i].has_value()) runs.push_back(i);

  const bool quiet = spec_.quiet || quiet_env();
  if (!quiet && (shard.count > 1 || resumed_count > 0)) {
    std::cerr << "[" << spec_.name << "] shard " << shard.index << "/"
              << shard.count << ": " << mine.size() << "/" << total
              << " cells owned, " << resumed_count << " resumed, "
              << runs.size() << " to run\n";
  }
  std::atomic<std::size_t> done{0};
  std::mutex io_mutex;
  // contract-trusted: determinism: progress timing only; raw-stream
  // wall_s and stderr progress, never canonical output (see sink.hpp)
  const auto start = std::chrono::steady_clock::now();
  std::vector<CellResult> ran = run_indexed<CellResult>(
      spec_.threads, runs.size(), [&](std::size_t k) {
        const std::size_t i = runs[k];
        // contract-trusted: determinism: per-cell wall_s is a
        // raw-stream-only field, excluded from canonical output
        const auto cell_start = std::chrono::steady_clock::now();
        CellResult cell = run_cell(spec_, coords[i]);
        const double wall =
            // contract-trusted: determinism: raw-stream wall_s only
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          cell_start)
                .count();
        if (sink) sink->append(i, cell, wall, spec_.on_cell_streamed);
        const std::size_t finished = done.fetch_add(1) + 1;
        if (!quiet) {
          const double elapsed =
              // contract-trusted: determinism: stderr progress line only
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          const std::lock_guard<std::mutex> lock(io_mutex);
          std::cerr << "[" << spec_.name << "] " << finished << "/"
                    << runs.size() << " cells, "
                    << static_cast<int>(elapsed * 10.0) / 10.0
                    << "s elapsed\n";
        }
        return cell;
      });

  // Reduce in cell order; run_indexed has already rethrown the
  // lowest-index failure. A sharded run's result holds only this shard's
  // cells; merge_streams reassembles the full campaign from the per-shard
  // streams.
  for (std::size_t k = 0; k < runs.size(); ++k)
    slots[runs[k]].emplace(std::move(ran[k]));
  CampaignResult result;
  result.cells.reserve(mine.size());
  for (const std::size_t i : mine)
    result.cells.push_back(std::move(*slots[i]));
  return result;
}

SimResult run_one(const MachineCase& machine, const MixSpec& mix,
                  AllocatorKind kind, const SchedOptions* base,
                  std::uint64_t seed) {
  if (seed == 0) seed = base_seed();
  JobLog log = machine.base_log;
  apply_mix(log, mix, derive_mix_seed(seed, machine.name, mix.name));
  SchedOptions options = base != nullptr ? *base : SchedOptions{};
  options.allocator = kind;
  options.sa.seed = mix64(
      options.sa.seed ^
      derive_cell_seed(seed, machine.name, mix.name, allocator_kind_name(kind)));
  return run_continuous(machine.tree, log, options);
}

}  // namespace commsched::exp
