// Persistence/sharding contract of exp/sink.hpp (DESIGN.md "Campaign
// persistence, sharding & resume"): shard assignment is a pure function of
// the cell's axis labels, the spec fingerprint pins stream identity, cell
// records round-trip bit for bit, and {1 process, N shards + merge, resume}
// all reduce to the same bytes.
#include "exp/sink.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/emit.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "workload/synthetic.hpp"

namespace commsched::exp {
namespace {

std::filesystem::path test_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("commsched_sink_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Same tiny grid shape as campaign_test.cpp: milliseconds per cell.
MachineCase tiny_machine(const std::string& name, std::uint64_t seed) {
  LogProfile profile;
  profile.name = name;
  profile.machine_nodes = 64;
  profile.min_exp = 1;
  profile.max_exp = 5;
  profile.pow2_fraction = 0.9;
  profile.runtime_log_median = 6.0;
  profile.runtime_sigma = 0.8;
  profile.target_load = 0.9;
  return MachineCase{name, make_two_level_tree(4, 16),
                     generate_log(profile, 60, seed)};
}

CampaignSpec tiny_spec(int threads) {
  CampaignSpec spec;
  spec.name = "sinktest";
  spec.quiet = true;
  spec.threads = threads;
  spec.machines.push_back(tiny_machine("M0", 11));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveDoubling, 0.6, 0.5));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kBalanced,
                     AllocatorKind::kAdaptive};
  spec.base_seeds = {7};
  return spec;
}

// A cell full of worst-case values: labels that need CSV/JSON escaping,
// full-width 64-bit seeds, doubles with no short decimal form.
CellResult nasty_cell() {
  CellResult cell;
  cell.coord = CellCoord{1, 2, 0, 3, 4};
  cell.machine = "M, \"quoted\"\nnewline";
  cell.mix = " leading space";
  cell.allocator = "adaptive\tTAB";
  cell.variant = "caf\xc3\xa9";
  cell.base_seed = std::numeric_limits<std::uint64_t>::max();
  cell.mix_seed = 0x9e3779b97f4a7c15ULL;
  cell.cell_seed = 1;
  cell.summary.allocator = cell.allocator;
  cell.summary.job_count = 60;
  cell.summary.total_exec_hours = 1.0 / 3.0;
  cell.summary.total_wait_hours = 1e-300;
  cell.summary.avg_wait_hours = std::numeric_limits<double>::denorm_min();
  cell.summary.avg_turnaround_hours = 123456.789;
  cell.summary.total_node_hours = std::numeric_limits<double>::max();
  cell.summary.avg_node_hours = 2.0 / 3.0;
  cell.summary.total_cost = 9.87e20;
  cell.summary.avg_cost = 0.1;
  cell.summary.makespan_hours = 4503599627370497.0;  // 2^52 + 1
  cell.summary.cache.profile_hits = std::numeric_limits<std::uint64_t>::max();
  cell.summary.cache.profile_misses = 42;
  return cell;
}

TEST(ParseShard, AcceptsWellFormedRejectsMalformed) {
  EXPECT_EQ(parse_shard("0/1"), (ShardConfig{0, 1}));
  EXPECT_EQ(parse_shard("3/8"), (ShardConfig{3, 8}));
  EXPECT_THROW((void)parse_shard(""), InvariantError);
  EXPECT_THROW((void)parse_shard("2"), InvariantError);
  EXPECT_THROW((void)parse_shard("a/b"), InvariantError);
  EXPECT_THROW((void)parse_shard("2/2"), InvariantError);
  EXPECT_THROW((void)parse_shard("-1/4"), InvariantError);
  EXPECT_THROW((void)parse_shard("1/0"), InvariantError);
}

TEST(ParseShard, EnvFallbackDefaultsToSingleShard) {
  ::unsetenv("COMMSCHED_SHARD");
  EXPECT_EQ(shard_from_env(), (ShardConfig{0, 1}));
  ::setenv("COMMSCHED_SHARD", "1/3", 1);
  EXPECT_EQ(shard_from_env(), (ShardConfig{1, 3}));
  ::unsetenv("COMMSCHED_SHARD");

  CampaignSpec spec = tiny_spec(1);
  EXPECT_EQ(resolve_shard(spec), (ShardConfig{0, 1}));
  spec.shard_index = 2;
  spec.shard_count = 1;  // index out of range
  EXPECT_THROW((void)resolve_shard(spec), InvariantError);
}

TEST(ShardOfCell, PartitionsTheGridDeterministically) {
  const CampaignSpec spec = tiny_spec(1);
  const auto coords = spec.cells();
  ASSERT_EQ(coords.size(), 6u);
  for (const int count : {1, 2, 3, 5}) {
    std::vector<std::size_t> owned(static_cast<std::size_t>(count), 0);
    for (const CellCoord& c : coords) {
      const int s = shard_of_cell(spec, c, count);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, count);
      EXPECT_EQ(s, shard_of_cell(spec, c, count));  // pure function
      ++owned[static_cast<std::size_t>(s)];
    }
    std::size_t total = 0;
    for (const std::size_t n : owned) total += n;
    EXPECT_EQ(total, coords.size());
  }
  // Execution knobs do not move cells between shards.
  CampaignSpec tuned = tiny_spec(8);
  tuned.quiet = false;
  for (const CellCoord& c : coords)
    EXPECT_EQ(shard_of_cell(spec, c, 4), shard_of_cell(tuned, c, 4));
}

TEST(SpecFingerprint, TracksIdentityNotExecutionKnobs) {
  const CampaignSpec spec = tiny_spec(1);
  const std::uint64_t base = spec_fingerprint(spec);
  EXPECT_EQ(base, spec_fingerprint(spec));

  // Execution knobs are not identity.
  CampaignSpec knobs = tiny_spec(8);
  knobs.quiet = false;
  knobs.stream_path = "/tmp/elsewhere.jsonl";
  knobs.resume = false;
  EXPECT_EQ(base, spec_fingerprint(knobs));

  CampaignSpec renamed = tiny_spec(1);
  renamed.name = "other";
  EXPECT_NE(base, spec_fingerprint(renamed));

  CampaignSpec machine = tiny_spec(1);
  machine.machines[0].name = "M0'";
  EXPECT_NE(base, spec_fingerprint(machine));

  CampaignSpec mixes = tiny_spec(1);
  mixes.mixes.push_back(uniform_mix(Pattern::kPairwiseAlltoall, 0.5, 0.5));
  EXPECT_NE(base, spec_fingerprint(mixes));

  CampaignSpec seeds = tiny_spec(1);
  seeds.base_seeds = {8};
  EXPECT_NE(base, spec_fingerprint(seeds));

  CampaignSpec variant = tiny_spec(1);
  variant.variants[0].name = "renamed";
  EXPECT_NE(base, spec_fingerprint(variant));

  // The admitted cell list covers the filter.
  CampaignSpec filtered = tiny_spec(1);
  filtered.filter = [](const CampaignSpec&, const CellCoord& c) {
    return c.mix == 0;
  };
  EXPECT_NE(base, spec_fingerprint(filtered));
}

TEST(CellJson, RoundTripsBitForBit) {
  const CellResult cell = nasty_cell();
  const std::string line = cell_json(31, cell);
  const StreamedCell back = parse_cell_json(parse_json(line));
  EXPECT_EQ(back.cell_index, 31u);
  EXPECT_TRUE(back.result.resumed);
  EXPECT_EQ(back.wall_seconds, 0.0);  // canonical line: no wall_s
  EXPECT_EQ(back.result.coord, cell.coord);
  EXPECT_EQ(back.result.machine, cell.machine);
  EXPECT_EQ(back.result.mix, cell.mix);
  EXPECT_EQ(back.result.allocator, cell.allocator);
  EXPECT_EQ(back.result.variant, cell.variant);
  EXPECT_EQ(back.result.base_seed, cell.base_seed);
  EXPECT_EQ(back.result.mix_seed, cell.mix_seed);
  EXPECT_EQ(back.result.cell_seed, cell.cell_seed);
  EXPECT_EQ(back.result.summary.total_exec_hours,
            cell.summary.total_exec_hours);
  EXPECT_EQ(back.result.summary.avg_wait_hours, cell.summary.avg_wait_hours);
  EXPECT_EQ(back.result.summary.total_node_hours,
            cell.summary.total_node_hours);
  EXPECT_EQ(back.result.summary.makespan_hours, cell.summary.makespan_hours);
  EXPECT_EQ(back.result.summary.cache.profile_hits,
            cell.summary.cache.profile_hits);
  EXPECT_EQ(back.result.summary.cache.profile_misses,
            cell.summary.cache.profile_misses);
  // The decisive check: parse -> re-serialize reproduces the exact bytes.
  EXPECT_EQ(cell_json(31, back.result), line);
}

TEST(CellJson, ReadsLinesThatStillCarryScheduleCacheKeys) {
  // Streams written before the schedule memo was removed carry
  // "sched_hit"/"sched_miss" in each cell's cache object. They still parse
  // (so a running campaign resumes), and re-serialize without those keys.
  const CellResult cell = nasty_cell();
  const std::string line = cell_json(31, cell);
  const std::string cache_key = "\"cache\":{";
  const std::size_t at = line.find(cache_key);
  ASSERT_NE(at, std::string::npos);
  std::string old_line = line;
  old_line.insert(at + cache_key.size(),
                  "\"sched_hit\":18446744073709551615,\"sched_miss\":0,");
  const StreamedCell back = parse_cell_json(parse_json(old_line));
  EXPECT_EQ(back.cell_index, 31u);
  EXPECT_EQ(cell_json(31, back.result), line);
}

TEST(CampaignSink, WritesHeaderThenDurableLinesToleratingTornTail) {
  const auto dir = test_dir("sink");
  const std::string path = (dir / "s.jsonl").string();
  StreamHeader header;
  header.spec_name = "sinktest";
  header.fingerprint = 0xdeadbeefcafe1234ULL;
  header.total_cells = 6;
  header.shard = ShardConfig{1, 2};

  std::vector<std::size_t> streamed;
  {
    CampaignSink sink(path, header, /*fresh=*/true);
    const auto hook = [&streamed](std::size_t n) { streamed.push_back(n); };
    sink.append(4, nasty_cell(), 0.25, hook);
    sink.append(2, nasty_cell(), 1.5, hook);
    EXPECT_EQ(sink.appended(), 2u);
    EXPECT_EQ(sink.path(), path);
  }
  EXPECT_EQ(streamed, (std::vector<std::size_t>{1, 2}));

  // Simulate a SIGKILL mid-append: raw partial bytes, no terminator.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "{\"cell\":9,\"coo";
  }
  const CampaignStream stream = load_stream(path);
  EXPECT_EQ(stream.header.spec_name, header.spec_name);
  EXPECT_EQ(stream.header.fingerprint, header.fingerprint);
  EXPECT_EQ(stream.header.total_cells, 6u);
  EXPECT_EQ(stream.header.shard, (ShardConfig{1, 2}));
  ASSERT_EQ(stream.cells.size(), 2u);
  EXPECT_EQ(stream.cells[0].cell_index, 4u);
  EXPECT_EQ(stream.cells[0].wall_seconds, 0.25);
  EXPECT_EQ(stream.cells[1].cell_index, 2u);
  EXPECT_EQ(stream.cells[1].wall_seconds, 1.5);
  EXPECT_LT(stream.valid_bytes, std::filesystem::file_size(path));

  // Reopening without `fresh` keeps the existing header (no duplicate).
  {
    CampaignSink sink(path, header, /*fresh=*/false);
    EXPECT_EQ(sink.appended(), 0u);
  }
  EXPECT_THROW((void)load_stream((dir / "absent.jsonl").string()), IoError);
  { std::ofstream f(dir / "empty.jsonl"); }
  EXPECT_THROW((void)load_stream((dir / "empty.jsonl").string()), ParseError);
}

TEST(CampaignRunner, StreamsEveryCellAndResumesFromTheFile) {
  const auto dir = test_dir("resume");
  const std::string path = (dir / "campaign.jsonl").string();

  CampaignSpec spec = tiny_spec(2);
  spec.stream_path = path;
  const std::string first_csv = [&] {
    CampaignRunner runner(spec);
    const CampaignResult result = runner.run();
    for (const CellResult& cell : result.cells) EXPECT_FALSE(cell.resumed);
    return campaign_table(result).render_csv();
  }();
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(load_stream(path).cells.size(), 6u);

  // Re-running the same spec executes nothing: every cell is resumed, and
  // the reduced CSV is byte-identical.
  {
    CampaignRunner runner(spec);
    const CampaignResult result = runner.run();
    ASSERT_EQ(result.cells.size(), 6u);
    for (const CellResult& cell : result.cells) {
      EXPECT_TRUE(cell.resumed);
      EXPECT_TRUE(cell.sim.jobs.empty());  // per-job series not persisted
    }
    EXPECT_EQ(campaign_table(result).render_csv(), first_csv);
  }

  // A different campaign must refuse the stream...
  CampaignSpec other = spec;
  other.base_seeds = {8};
  EXPECT_THROW((void)CampaignRunner(other).run(), InvariantError);
  // ...unless resume is off, which truncates and starts fresh.
  other.resume = false;
  const CampaignResult fresh = CampaignRunner(other).run();
  for (const CellResult& cell : fresh.cells) EXPECT_FALSE(cell.resumed);
  EXPECT_EQ(load_stream(path).header.fingerprint, spec_fingerprint(other));
}

TEST(CampaignRunner, AFailedCellRethrowsOnlyAfterTheOtherCellsStream) {
  const auto dir = test_dir("failed_cell");
  const std::string path = (dir / "campaign.jsonl").string();
  const std::string expected_csv =
      campaign_table(CampaignRunner(tiny_spec(1)).run()).render_csv();

  // The hook runs on the worker that streamed the cell, so throwing from it
  // fails that cell after its line has landed.
  CampaignSpec spec = tiny_spec(4);
  spec.stream_path = path;
  spec.on_cell_streamed = [](std::size_t streamed) {
    if (streamed == 2) throw std::runtime_error("second streamed cell failed");
  };
  try {
    (void)CampaignRunner(spec).run();
    FAIL() << "expected the failed cell's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "second streamed cell failed");
  }
  EXPECT_EQ(load_stream(path).cells.size(), 6u)
      << "a failed cell must not stop the other cells";

  // Resuming runs nothing and reduces to the bytes of a run that never
  // failed.
  spec.on_cell_streamed = nullptr;
  const CampaignResult resumed = CampaignRunner(spec).run();
  ASSERT_EQ(resumed.cells.size(), 6u);
  for (const CellResult& cell : resumed.cells) EXPECT_TRUE(cell.resumed);
  EXPECT_EQ(campaign_table(resumed).render_csv(), expected_csv);
}

TEST(CampaignRunner, ShardedRunsMergeToTheSingleProcessBytes) {
  const auto dir = test_dir("shards");
  CampaignSpec full = tiny_spec(2);
  full.stream_path = (dir / "full.jsonl").string();
  const CampaignResult full_result = CampaignRunner(full).run();
  const std::string full_csv = campaign_table(full_result).render_csv();
  const std::string full_canonical =
      canonical_jsonl(make_stream_header(full), full_result);

  // Two shards, deliberately different thread counts.
  std::vector<std::string> shard_paths;
  std::size_t owned_total = 0;
  for (int i = 0; i < 2; ++i) {
    CampaignSpec shard = tiny_spec(i == 0 ? 1 : 4);
    shard.shard_index = i;
    shard.shard_count = 2;
    shard.stream_path =
        (dir / ("shard" + std::to_string(i) + ".jsonl")).string();
    shard_paths.push_back(shard.stream_path);
    owned_total += CampaignRunner(shard).run().cells.size();
  }
  EXPECT_EQ(owned_total, full_result.cells.size());

  const MergedCampaign merged = merge_streams(shard_paths);
  EXPECT_EQ(merged.header.shard, (ShardConfig{0, 1}));
  EXPECT_EQ(campaign_table(merged.result).render_csv(), full_csv);
  EXPECT_EQ(canonical_jsonl(merged.header, merged.result), full_canonical);

  // Merging the single full stream produces the same canonical bytes.
  const MergedCampaign single = merge_streams({full.stream_path});
  EXPECT_EQ(canonical_jsonl(single.header, single.result), full_canonical);
  EXPECT_EQ(campaign_json(merged.result), campaign_json(full_result));
}

TEST(MergeStreams, RejectsDuplicatesGapsAndForeignStreams) {
  const auto dir = test_dir("merge");
  CampaignSpec shard0 = tiny_spec(1);
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  shard0.stream_path = (dir / "s0.jsonl").string();
  const std::size_t owned = CampaignRunner(shard0).run().cells.size();

  // The same shard twice: every cell appears in both streams (and even an
  // empty shard pair stays incomplete).
  EXPECT_THROW(
      (void)merge_streams({shard0.stream_path, shard0.stream_path}),
      InvariantError);
  // Missing shard 1: incomplete unless explicitly allowed.
  if (owned < 6u) {
    EXPECT_THROW((void)merge_streams({shard0.stream_path}), InvariantError);
  }
  const MergedCampaign partial =
      merge_streams({shard0.stream_path}, /*require_complete=*/false);
  EXPECT_EQ(partial.result.cells.size(), owned);

  // A stream from a different campaign spec never merges in.
  CampaignSpec foreign = tiny_spec(1);
  foreign.base_seeds = {99};
  foreign.shard_index = 1;
  foreign.shard_count = 2;
  foreign.stream_path = (dir / "foreign.jsonl").string();
  (void)CampaignRunner(foreign).run();
  EXPECT_THROW(
      (void)merge_streams({shard0.stream_path, foreign.stream_path},
                          /*require_complete=*/false),
      InvariantError);
}

TEST(CampaignRunner, StreamDirEnvOptsHarnessesIntoStreaming) {
  const auto dir = test_dir("envdir");
  ::setenv("COMMSCHED_STREAM_DIR", dir.string().c_str(), 1);
  CampaignSpec spec = tiny_spec(1);
  spec.mixes.resize(1);
  spec.allocators = {AllocatorKind::kDefault};
  (void)CampaignRunner(spec).run();
  ::unsetenv("COMMSCHED_STREAM_DIR");
  const std::string path = (dir / "sinktest.jsonl").string();
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(load_stream(path).cells.size(), 1u);
}

}  // namespace
}  // namespace commsched::exp
