// Crash-safe campaign persistence and process sharding (DESIGN.md
// "Campaign persistence, sharding & resume").
//
// The campaign engine (exp/campaign.hpp) makes every cell a pure function
// of its axis labels; this layer makes a *campaign run* restartable and
// distributable without weakening that contract:
//
//   CampaignSink   appends one JSONL line per completed cell — coordinates,
//                  seeds, RunSummary metrics, CacheStats and wall time — as
//                  it finishes. The first line is an fsync'd header carrying
//                  the spec fingerprint; every cell line is one write(2) on
//                  an O_APPEND descriptor followed by fsync, so a SIGKILL at
//                  any instant leaves complete lines plus at most one
//                  partial trailing line.
//   load_stream    reads a (possibly truncated) stream back, dropping the
//                  partial trailing line; the runner skips loaded cells on
//                  resume and truncates the file to the last valid byte.
//   shard_of_cell  deterministic cell → shard assignment by hashing the
//                  cell's axis labels (never indices into a mutable config,
//                  never thread ids), so COMMSCHED_SHARD=i/N partitions the
//                  grid identically on every machine and thread count.
//   merge_streams  combines shard (or resumed single-run) stream files back
//                  into the CampaignResult a single uninterrupted process
//                  would reduce — same cell order, bit-identical emitted
//                  CSV/JSON.
//
// Two line flavors keep determinism honest: the *raw* stream line carries a
// trailing nondeterministic "wall_s" field (timing is real data, but differs
// run to run), while the *canonical* rendering (canonical_jsonl, the merge
// output) contains only the deterministic payload — {1 process, N shards,
// kill+resume} all produce byte-identical canonical files.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace commsched::exp {

/// Which slice of the grid this process executes: cells whose
/// shard_of_cell(...) == index, out of `count` total shards.
struct ShardConfig {
  int index = 0;
  int count = 1;

  bool operator==(const ShardConfig&) const = default;
};

/// Parse "i/N" (0 <= i < N); throws InvariantError on malformed input.
ShardConfig parse_shard(std::string_view text);

/// COMMSCHED_SHARD when set (parse_shard), else {0, 1}.
ShardConfig shard_from_env();

/// Resolve a spec's shard fields: shard_count == 0 defers to
/// shard_from_env(); explicit values are validated (0 <= index < count).
ShardConfig resolve_shard(const CampaignSpec& spec);

/// Deterministic shard of one cell: hash of the cell's axis *labels*
/// (machine, mix, allocator, variant names and the resolved base seed) mod
/// shard_count. Independent of thread count, completion order, filter
/// shape and platform.
int shard_of_cell(const CampaignSpec& spec, const CellCoord& c,
                  int shard_count);

/// Stable fingerprint of a campaign's identity: spec name, each axis's
/// labels (machines also absorb node and job counts), resolved base seeds
/// and the admitted cell list (which covers the filter). Two specs with
/// equal fingerprints produce interchangeable streams; resume and merge
/// refuse mismatches. Variant SchedOptions are represented by the variant
/// *name* — rename a variant when its options change.
std::uint64_t spec_fingerprint(const CampaignSpec& spec);

/// Stream identity, written as the first line of every stream file.
struct StreamHeader {
  std::string spec_name;
  std::uint64_t fingerprint = 0;
  std::size_t total_cells = 0;  ///< admitted cells of the *whole* grid
  ShardConfig shard;            ///< {0, 1} for unsharded runs
};

/// The header's raw JSONL line (with shard fields).
std::string header_json(const StreamHeader& header);

/// The header's canonical JSONL line (no shard fields — merged output is
/// shard-agnostic).
std::string canonical_header_json(const StreamHeader& header);

/// Deterministic JSON payload of one executed cell: global cell index,
/// coordinates, labels, seeds, full RunSummary and CacheStats. No wall
/// time — this is the canonical line the merge emits and the JSON emitter
/// reuses. Doubles use shortest round-trip formatting (util/json.hpp), so
/// a parsed-back summary reproduces emitted CSV bytes exactly.
std::string cell_json(std::size_t cell_index, const CellResult& cell);

/// One parsed stream record.
struct StreamedCell {
  std::size_t cell_index = 0;
  CellResult result;         ///< resumed = true, sim empty
  double wall_seconds = 0.0; ///< 0 when absent (canonical lines)
};

/// Parse a cell line (raw or canonical) back. Throws ParseError on
/// malformed records.
StreamedCell parse_cell_json(const JsonValue& value);

/// A loaded stream file: header, complete records, and the byte offset one
/// past the last complete line (resume truncates to it).
struct CampaignStream {
  StreamHeader header;
  std::vector<StreamedCell> cells;
  std::uint64_t valid_bytes = 0;
};

/// Load a stream file, tolerating a partial trailing line (dropped).
/// Throws IoError when unreadable, ParseError when the header or a
/// complete line is malformed.
CampaignStream load_stream(const std::string& path);

/// Append-only writer for one process's stream. Thread-safe: workers
/// append concurrently; each line is written and fsync'd under one lock.
class CampaignSink {
 public:
  /// Open the stream. An empty (or `fresh`-truncated) file gets the header
  /// line, fsync'd before any cell can be appended. When resuming, the
  /// caller has already validated the existing header via load_stream and
  /// truncated off any partial trailing line.
  CampaignSink(const std::string& path, const StreamHeader& header,
               bool fresh);

  /// Append one completed cell (raw line: canonical payload + "wall_s"),
  /// fsync, and invoke `on_streamed` (when set) with the running count.
  void append(std::size_t cell_index, const CellResult& cell,
              double wall_seconds,
              const std::function<void(std::size_t)>& on_streamed);

  std::size_t appended() const;
  const std::string& path() const noexcept { return file_.path(); }

 private:
  mutable std::mutex mutex_;
  AppendFile file_;
  std::size_t appended_ = 0;
};

/// A merged campaign: the common header (shard cleared to {0, 1}) plus the
/// reduced result in cell order.
struct MergedCampaign {
  StreamHeader header;
  CampaignResult result;
};

/// Merge stream files (shards of one campaign, or a single possibly-resumed
/// stream) into the CampaignResult a single process would produce. Validates
/// that every file carries the same spec name/fingerprint/total, and that
/// no cell appears twice; with `require_complete`, every admitted cell must
/// be present. Cells are ordered by global cell index — the engine's
/// reduction order.
MergedCampaign merge_streams(const std::vector<std::string>& paths,
                             bool require_complete = true);

/// Canonical JSONL rendering of a complete campaign (header + one payload
/// line per cell, in cell order): byte-identical across {1 process,
/// N shards + merge, kill + resume} and any COMMSCHED_THREADS.
std::string canonical_jsonl(const StreamHeader& header,
                            const CampaignResult& result);

/// Convenience: header for an in-process run of `spec` (fingerprint
/// computed, shard taken from the spec/env).
StreamHeader make_stream_header(const CampaignSpec& spec);

}  // namespace commsched::exp
