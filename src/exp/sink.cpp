#include "exp/sink.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/assert.hpp"

namespace commsched::exp {

namespace {

// Domain-separation tags (cf. the seed domains in campaign.cpp): a shard
// assignment can never collide with a fingerprint built from the same
// labels.
constexpr std::uint64_t kShardDomain = 0x73686172642f6f66ULL;        // "shard/of"
constexpr std::uint64_t kFingerprintDomain = 0x63616d7066707274ULL;  // "campfprt"

std::uint64_t absorb_u64(std::uint64_t h, std::uint64_t v) {
  return detail::mix64(h ^ v);
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t parse_hex16(const std::string& text) {
  if (text.size() != 16) throw ParseError("bad fingerprint: " + text);
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else throw ParseError("bad fingerprint: " + text);
  }
  return v;
}

std::uint64_t resolved_base_seed(const CampaignSpec& spec, std::size_t index) {
  return spec.base_seeds.empty() ? base_seed() : spec.base_seeds[index];
}

std::string summary_json(const RunSummary& s) {
  std::string out = "{";
  out += "\"allocator\":" + json_quote(s.allocator);
  out += ",\"jobs\":" + std::to_string(s.job_count);
  out += ",\"exec_h\":" + json_number(s.total_exec_hours);
  out += ",\"wait_h\":" + json_number(s.total_wait_hours);
  out += ",\"avg_wait_h\":" + json_number(s.avg_wait_hours);
  out += ",\"turnaround_h\":" + json_number(s.avg_turnaround_hours);
  out += ",\"node_h\":" + json_number(s.total_node_hours);
  out += ",\"avg_node_h\":" + json_number(s.avg_node_hours);
  out += ",\"cost\":" + json_number(s.total_cost);
  out += ",\"avg_cost\":" + json_number(s.avg_cost);
  out += ",\"makespan_h\":" + json_number(s.makespan_hours);
  out += "}";
  return out;
}

std::string cache_json(const CacheStats& c) {
  std::string out = "{";
  out += "\"prof_hit\":" + std::to_string(c.profile_hits);
  out += ",\"prof_miss\":" + std::to_string(c.profile_misses);
  out += "}";
  return out;
}

RunSummary parse_summary(const JsonValue& v) {
  RunSummary s;
  s.allocator = v.at("allocator").as_string();
  s.job_count = static_cast<std::size_t>(v.at("jobs").as_uint64());
  s.total_exec_hours = v.at("exec_h").as_double();
  s.total_wait_hours = v.at("wait_h").as_double();
  s.avg_wait_hours = v.at("avg_wait_h").as_double();
  s.avg_turnaround_hours = v.at("turnaround_h").as_double();
  s.total_node_hours = v.at("node_h").as_double();
  s.avg_node_hours = v.at("avg_node_h").as_double();
  s.total_cost = v.at("cost").as_double();
  s.avg_cost = v.at("avg_cost").as_double();
  s.makespan_hours = v.at("makespan_h").as_double();
  return s;
}

CacheStats parse_cache(const JsonValue& v) {
  CacheStats c;
  c.profile_hits = v.at("prof_hit").as_uint64();
  c.profile_misses = v.at("prof_miss").as_uint64();
  return c;
}

StreamHeader parse_header(const JsonValue& v) {
  if (v.find("commsched_campaign") == nullptr ||
      v.at("commsched_campaign").as_int64() != 1)
    throw ParseError("not a commsched campaign stream header");
  StreamHeader header;
  header.spec_name = v.at("spec").as_string();
  header.fingerprint = parse_hex16(v.at("fingerprint").as_string());
  header.total_cells = static_cast<std::size_t>(v.at("cells").as_uint64());
  if (const JsonValue* shard = v.find("shard")) {
    header.shard.index = static_cast<int>(shard->as_int64());
    header.shard.count = static_cast<int>(v.at("shard_count").as_int64());
  }
  return header;
}

std::string header_json_impl(const StreamHeader& header, bool with_shard) {
  std::string out = "{\"commsched_campaign\":1";
  out += ",\"spec\":" + json_quote(header.spec_name);
  out += ",\"fingerprint\":" + json_quote(hex16(header.fingerprint));
  out += ",\"cells\":" + std::to_string(header.total_cells);
  if (with_shard) {
    out += ",\"shard\":" + std::to_string(header.shard.index);
    out += ",\"shard_count\":" + std::to_string(header.shard.count);
  }
  out += "}";
  return out;
}

}  // namespace

ShardConfig parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  COMMSCHED_ASSERT_MSG(slash != std::string_view::npos,
                       "COMMSCHED_SHARD must be 'i/N', e.g. 0/4");
  const auto index = parse_int(text.substr(0, slash));
  const auto count = parse_int(text.substr(slash + 1));
  COMMSCHED_ASSERT_MSG(index.has_value() && count.has_value(),
                       "COMMSCHED_SHARD must be 'i/N' with integer i, N");
  ShardConfig shard;
  shard.index = static_cast<int>(*index);
  shard.count = static_cast<int>(*count);
  COMMSCHED_ASSERT_MSG(shard.count >= 1 && shard.index >= 0 &&
                           shard.index < shard.count,
                       "COMMSCHED_SHARD requires 0 <= i < N");
  return shard;
}

ShardConfig shard_from_env() {
  const char* v = std::getenv("COMMSCHED_SHARD");
  if (v == nullptr || *v == '\0') return ShardConfig{};
  return parse_shard(v);
}

ShardConfig resolve_shard(const CampaignSpec& spec) {
  if (spec.shard_count == 0) return shard_from_env();
  ShardConfig shard;
  shard.index = spec.shard_index;
  shard.count = spec.shard_count;
  COMMSCHED_ASSERT_MSG(shard.count >= 1 && shard.index >= 0 &&
                           shard.index < shard.count,
                       "CampaignSpec shard requires 0 <= index < count");
  return shard;
}

int shard_of_cell(const CampaignSpec& spec, const CellCoord& c,
                  int shard_count) {
  COMMSCHED_ASSERT_GE_MSG(shard_count, 1, "shard_count must be positive");
  std::uint64_t h = detail::mix64(kShardDomain);
  h = detail::absorb(h, spec.machines[c.machine].name);
  h = detail::absorb(h, spec.mixes[c.mix].name);
  h = detail::absorb(h, allocator_kind_name(spec.allocators[c.allocator]));
  h = absorb_u64(h, resolved_base_seed(spec, c.seed));
  h = detail::absorb(h, spec.variants[c.variant].name);
  return static_cast<int>(h % static_cast<std::uint64_t>(shard_count));
}

std::uint64_t spec_fingerprint(const CampaignSpec& spec) {
  std::uint64_t h = detail::mix64(kFingerprintDomain);
  h = detail::absorb(h, spec.name);

  h = absorb_u64(h, spec.machines.size());
  for (const MachineCase& m : spec.machines) {
    h = detail::absorb(h, m.name);
    h = absorb_u64(h, static_cast<std::uint64_t>(m.tree.node_count()));
    h = absorb_u64(h, m.base_log.size());
  }
  h = absorb_u64(h, spec.mixes.size());
  for (const MixSpec& mix : spec.mixes) h = detail::absorb(h, mix.name);
  h = absorb_u64(h, spec.allocators.size());
  for (const AllocatorKind kind : spec.allocators)
    h = detail::absorb(h, allocator_kind_name(kind));
  const std::size_t n_seeds =
      spec.base_seeds.empty() ? 1 : spec.base_seeds.size();
  h = absorb_u64(h, n_seeds);
  for (std::size_t s = 0; s < n_seeds; ++s)
    h = absorb_u64(h, resolved_base_seed(spec, s));
  h = absorb_u64(h, spec.variants.size());
  for (const OptionsVariant& v : spec.variants) h = detail::absorb(h, v.name);

  // The admitted cell list covers the filter: two specs whose filters admit
  // different subsets fingerprint differently.
  const std::vector<CellCoord> coords = spec.cells();
  h = absorb_u64(h, coords.size());
  for (const CellCoord& c : coords) {
    h = absorb_u64(h, c.machine);
    h = absorb_u64(h, c.mix);
    h = absorb_u64(h, c.allocator);
    h = absorb_u64(h, c.seed);
    h = absorb_u64(h, c.variant);
  }
  return h;
}

std::string header_json(const StreamHeader& header) {
  return header_json_impl(header, /*with_shard=*/true);
}

std::string canonical_header_json(const StreamHeader& header) {
  return header_json_impl(header, /*with_shard=*/false);
}

std::string cell_json(std::size_t cell_index, const CellResult& cell) {
  const CellCoord& c = cell.coord;
  std::string out = "{\"cell\":" + std::to_string(cell_index);
  out += ",\"coord\":[" + std::to_string(c.machine) + "," +
         std::to_string(c.mix) + "," + std::to_string(c.allocator) + "," +
         std::to_string(c.seed) + "," + std::to_string(c.variant) + "]";
  out += ",\"machine\":" + json_quote(cell.machine);
  out += ",\"mix\":" + json_quote(cell.mix);
  out += ",\"allocator\":" + json_quote(cell.allocator);
  out += ",\"variant\":" + json_quote(cell.variant);
  out += ",\"base_seed\":" + std::to_string(cell.base_seed);
  out += ",\"mix_seed\":" + std::to_string(cell.mix_seed);
  out += ",\"cell_seed\":" + std::to_string(cell.cell_seed);
  out += ",\"summary\":" + summary_json(cell.summary);
  out += ",\"cache\":" + cache_json(cell.summary.cache);
  out += "}";
  return out;
}

StreamedCell parse_cell_json(const JsonValue& v) {
  StreamedCell cell;
  cell.cell_index = static_cast<std::size_t>(v.at("cell").as_uint64());
  const std::vector<JsonValue>& coord = v.at("coord").items();
  if (coord.size() != 5) throw ParseError("cell coord must have 5 entries");
  cell.result.coord.machine = static_cast<std::size_t>(coord[0].as_uint64());
  cell.result.coord.mix = static_cast<std::size_t>(coord[1].as_uint64());
  cell.result.coord.allocator = static_cast<std::size_t>(coord[2].as_uint64());
  cell.result.coord.seed = static_cast<std::size_t>(coord[3].as_uint64());
  cell.result.coord.variant = static_cast<std::size_t>(coord[4].as_uint64());
  cell.result.machine = v.at("machine").as_string();
  cell.result.mix = v.at("mix").as_string();
  cell.result.allocator = v.at("allocator").as_string();
  cell.result.variant = v.at("variant").as_string();
  cell.result.base_seed = v.at("base_seed").as_uint64();
  cell.result.mix_seed = v.at("mix_seed").as_uint64();
  cell.result.cell_seed = v.at("cell_seed").as_uint64();
  cell.result.summary = parse_summary(v.at("summary"));
  cell.result.summary.cache = parse_cache(v.at("cache"));
  cell.result.resumed = true;
  if (const JsonValue* wall = v.find("wall_s"))
    cell.wall_seconds = wall->as_double();
  return cell;
}

CampaignStream load_stream(const std::string& path) {
  CampaignStream stream;
  const std::vector<std::string> lines =
      read_complete_lines(path, &stream.valid_bytes);
  if (lines.empty())
    throw ParseError("campaign stream '" + path + "' has no header line");
  stream.header = parse_header(parse_json(lines.front()));
  stream.cells.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    stream.cells.push_back(parse_cell_json(parse_json(lines[i])));
  }
  return stream;
}

CampaignSink::CampaignSink(const std::string& path, const StreamHeader& header,
                           bool fresh)
    : file_(path, /*truncate=*/fresh) {
  if (file_.size() == 0) {
    file_.append_line(header_json(header));
    file_.sync();
  }
}

void CampaignSink::append(std::size_t cell_index, const CellResult& cell,
                          double wall_seconds,
                          const std::function<void(std::size_t)>& on_streamed) {
  std::string line = cell_json(cell_index, cell);
  COMMSCHED_ASSERT_MSG(!line.empty() && line.back() == '}',
                       "cell payload must be a JSON object");
  line.pop_back();
  line += ",\"wall_s\":" + json_number(wall_seconds) + "}";

  const std::lock_guard<std::mutex> lock(mutex_);
  file_.append_line(line);
  file_.sync();
  ++appended_;
  if (on_streamed) on_streamed(appended_);
}

std::size_t CampaignSink::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

MergedCampaign merge_streams(const std::vector<std::string>& paths,
                             bool require_complete) {
  COMMSCHED_ASSERT_MSG(!paths.empty(), "merge_streams needs >= 1 stream");
  MergedCampaign merged;
  std::vector<StreamedCell> cells;
  bool first = true;
  for (const std::string& path : paths) {
    CampaignStream stream = load_stream(path);
    if (first) {
      merged.header = stream.header;
      merged.header.shard = ShardConfig{};  // merged output is shard-agnostic
      first = false;
    } else {
      COMMSCHED_ASSERT_MSG(
          stream.header.spec_name == merged.header.spec_name &&
              stream.header.fingerprint == merged.header.fingerprint &&
              stream.header.total_cells == merged.header.total_cells,
          "stream '" + path + "' belongs to a different campaign "
          "(spec name / fingerprint / cell count mismatch)");
    }
    for (StreamedCell& cell : stream.cells) {
      COMMSCHED_ASSERT_MSG(cell.cell_index < merged.header.total_cells,
                           "stream cell index out of range");
      cells.push_back(std::move(cell));
    }
  }

  std::sort(cells.begin(), cells.end(),
            [](const StreamedCell& a, const StreamedCell& b) {
              return a.cell_index < b.cell_index;
            });
  for (std::size_t i = 1; i < cells.size(); ++i)
    COMMSCHED_ASSERT_MSG(cells[i].cell_index != cells[i - 1].cell_index,
                         "cell " + std::to_string(cells[i].cell_index) +
                             " appears in more than one stream");
  if (require_complete)
    COMMSCHED_ASSERT_EQ_MSG(cells.size(), merged.header.total_cells,
                            "merged streams do not cover the whole campaign");

  merged.result.cells.reserve(cells.size());
  for (StreamedCell& cell : cells)
    merged.result.cells.push_back(std::move(cell.result));
  return merged;
}

std::string canonical_jsonl(const StreamHeader& header,
                            const CampaignResult& result) {
  StreamHeader canonical = header;
  canonical.shard = ShardConfig{};
  std::string out = canonical_header_json(canonical);
  out += '\n';
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    out += cell_json(i, result.cells[i]);
    out += '\n';
  }
  return out;
}

StreamHeader make_stream_header(const CampaignSpec& spec) {
  StreamHeader header;
  header.spec_name = spec.name;
  header.fingerprint = spec_fingerprint(spec);
  header.total_cells = spec.cells().size();
  header.shard = resolve_shard(spec);
  return header;
}

}  // namespace commsched::exp
