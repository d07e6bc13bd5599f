#include "exp/emit.hpp"

#include <iostream>

#include "exp/sink.hpp"
#include "util/file_io.hpp"

namespace commsched::exp {

void emit(const std::string& title, const TextTable& table,
          const std::string& stem) {
  std::cout << "\n== " << title << " ==\n" << table.render(2);
  const std::string path = "bench_out/" + stem + ".csv";
  if (table.write_csv(path))
    std::cout << "  [csv] " << path << "\n";
  else
    std::cout << "  [csv] failed to write " << path << "\n";
}

TextTable campaign_table(const CampaignResult& result) {
  TextTable table;
  table.set_header({"machine", "mix", "allocator", "variant", "base_seed",
                    "mix_seed", "jobs", "exec_h", "wait_h", "turnaround_h",
                    "node_h", "total_cost", "avg_cost", "makespan_h",
                    "prof_hit", "prof_miss", "prof_hit_rate"});
  for (const CellResult& c : result.cells) {
    const RunSummary& s = c.summary;
    table.add_row({c.machine, c.mix, c.allocator, c.variant,
                   std::to_string(c.base_seed), std::to_string(c.mix_seed),
                   std::to_string(s.job_count), cell(s.total_exec_hours, 2),
                   cell(s.total_wait_hours, 2),
                   cell(s.avg_turnaround_hours, 3), cell(s.total_node_hours, 1),
                   cell(s.total_cost, 1), cell(s.avg_cost, 2),
                   cell(s.makespan_hours, 2),
                   std::to_string(s.cache.profile_hits),
                   std::to_string(s.cache.profile_misses),
                   cell(s.cache.profile_hit_rate(), 4)});
  }
  return table;
}

std::string campaign_json(const CampaignResult& result) {
  std::string out = "{\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i) out += ',';
    out += "\n" + cell_json(i, result.cells[i]);
  }
  out += "\n]}\n";
  return out;
}

void emit_campaign(const std::string& title, const CampaignResult& result,
                   const std::string& stem) {
  const TextTable table = campaign_table(result);
  const std::string csv_path = "bench_out/" + stem + ".csv";
  const std::string json_path = "bench_out/" + stem + ".json";
  std::cout << "\n== " << title << " ==\n  " << result.cells.size()
            << " cells";
  if (table.write_csv(csv_path))
    std::cout << "  [csv] " << csv_path;
  else
    std::cout << "  [csv] failed to write " << csv_path;
  write_file_atomic(json_path, campaign_json(result));
  std::cout << "  [json] " << json_path << "\n";
}

bool emit_shard_slice(const CampaignSpec& spec, const std::string& title,
                      const CampaignResult& result, const std::string& stem) {
  const ShardConfig shard = resolve_shard(spec);
  if (shard.count <= 1) return false;
  const std::string i = std::to_string(shard.index);
  const std::string n = std::to_string(shard.count);
  emit_campaign(title + " (shard " + i + "/" + n + ")", result,
                stem + ".s" + i + "of" + n);
  std::cout << "sharded run: merge the per-shard streams with "
               "tools/campaign_merge for the full-grid tables\n";
  return true;
}

}  // namespace commsched::exp
