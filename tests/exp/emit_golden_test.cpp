// Golden-file lockdown of every emitted table/CSV/JSON shape (exp/emit.hpp,
// exp/sink.hpp, util/table.hpp): the rendered bytes of a fixed, hand-built
// campaign are compared byte for byte against files checked into
// tests/exp/golden/. Any formatting drift — column changes, escaping
// changes, number formatting — fails loudly instead of silently breaking
// downstream plotting scripts and the resume/merge byte contract.
//
// To regenerate after an *intentional* format change:
//   COMMSCHED_REGEN_GOLDEN=1 ./exp_emit_golden_test
// then review the diff and commit the new goldens.
#include "exp/emit.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "exp/sink.hpp"
#include "util/file_io.hpp"
#include "util/table.hpp"

namespace commsched::exp {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(COMMSCHED_GOLDEN_DIR) + "/" + name;
}

bool regen() { return std::getenv("COMMSCHED_REGEN_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) ADD_FAILURE() << "missing golden file " << path
                        << " (run with COMMSCHED_REGEN_GOLDEN=1 to create)";
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

// Compare `actual` against the checked-in golden, or rewrite the golden in
// regen mode. Byte-for-byte: no whitespace forgiveness.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (regen()) {
    write_file_atomic(path, actual);
    SUCCEED() << "regenerated " << path;
    return;
  }
  EXPECT_EQ(read_file(path), actual) << "golden mismatch for " << name;
}

// A fixed two-cell campaign exercising both plain values and every character
// class the emitters must escape. All doubles have exact deterministic
// renderings (shortest round-trip form in JSON, fixed precision in tables).
CampaignResult golden_result() {
  CampaignResult result;

  CellResult plain;
  plain.coord = CellCoord{0, 0, 0, 0, 0};
  plain.machine = "Theta";
  plain.mix = "RHVD 0.9";
  plain.allocator = "default";
  plain.variant = "base";
  plain.base_seed = 7;
  plain.mix_seed = 1234567890123456789ULL;
  plain.cell_seed = 987654321;
  plain.summary.allocator = plain.allocator;
  plain.summary.job_count = 60;
  plain.summary.total_exec_hours = 125.5;
  plain.summary.total_wait_hours = 30.25;
  plain.summary.avg_wait_hours = 0.5041666666666667;
  plain.summary.avg_turnaround_hours = 2.5961;
  plain.summary.total_node_hours = 4100.75;
  plain.summary.avg_node_hours = 68.34583333333333;
  plain.summary.total_cost = 987654.5;
  plain.summary.avg_cost = 18283.45;
  plain.summary.makespan_hours = 48.125;
  plain.summary.cache.profile_hits = 5000;
  plain.summary.cache.profile_misses = 250;
  result.cells.push_back(plain);

  CellResult nasty;
  nasty.coord = CellCoord{0, 1, 1, 0, 0};
  nasty.machine = "Theta";
  nasty.mix = "mix, with \"quotes\"";
  nasty.allocator = " balanced ";  // edge whitespace must survive CSV
  nasty.variant = "tab\there";
  nasty.base_seed = 7;
  nasty.mix_seed = 42;
  nasty.cell_seed = 18446744073709551615ULL;  // UINT64_MAX
  nasty.summary.allocator = nasty.allocator;
  nasty.summary.job_count = 60;
  nasty.summary.total_exec_hours = 1.0 / 3.0;
  nasty.summary.total_wait_hours = 1e-300;
  nasty.summary.avg_wait_hours = 0.0;
  nasty.summary.avg_turnaround_hours = 1e6;
  nasty.summary.total_node_hours = 0.1;
  nasty.summary.avg_node_hours = 2.0 / 3.0;
  nasty.summary.total_cost = 9.87e20;
  nasty.summary.avg_cost = 0.125;
  nasty.summary.makespan_hours = 4503599627370497.0;  // 2^52 + 1
  nasty.summary.cache.profile_hits = 1;
  nasty.summary.cache.profile_misses = 3;
  result.cells.push_back(nasty);

  return result;
}

StreamHeader golden_header() {
  StreamHeader header;
  header.spec_name = "golden";
  header.fingerprint = 0x0123456789abcdefULL;
  header.total_cells = 2;
  return header;
}

TEST(EmitGolden, CampaignTableText) {
  expect_golden("campaign_table.txt",
                campaign_table(golden_result()).render(2));
}

TEST(EmitGolden, CampaignTableCsv) {
  expect_golden("campaign_table.csv",
                campaign_table(golden_result()).render_csv());
}

TEST(EmitGolden, CampaignJson) {
  expect_golden("campaign.json", campaign_json(golden_result()));
}

TEST(EmitGolden, CanonicalStreamJsonl) {
  expect_golden("campaign_cells.jsonl",
                canonical_jsonl(golden_header(), golden_result()));
}

// Focused CSV escaping matrix (util/table.hpp render_csv): commas, quotes,
// embedded CR/LF and edge whitespace all quote per RFC 4180; plain fields
// stay unquoted.
TEST(EmitGolden, CsvEscapingMatrix) {
  TextTable table;
  table.set_header({"case", "value"});
  table.add_row({"plain", "alpha"});
  table.add_row({"comma", "a,b"});
  table.add_row({"quote", "say \"hi\""});
  table.add_row({"newline", "line1\nline2"});
  table.add_row({"carriage", "cr\rhere"});
  table.add_row({"lead-space", " padded"});
  table.add_row({"trail-space", "padded "});
  table.add_row({"lead-tab", "\tindented"});
  table.add_row({"mixed", " \"a\",b\r\n "});
  table.add_row({"empty", ""});
  expect_golden("escaping.csv", table.render_csv());
}

// The JSON golden round-trips: parsing the emitted document and
// re-serializing its cells reproduces the exact bytes (the property the
// merge/resume byte contract rests on).
TEST(EmitGolden, JsonGoldenRoundTrips) {
  const CampaignResult result = golden_result();
  const std::string doc = campaign_json(result);
  const JsonValue parsed = parse_json(doc);
  const auto& cells = parsed.at("cells").items();
  ASSERT_EQ(cells.size(), result.cells.size());
  CampaignResult back;
  for (const JsonValue& cell : cells)
    back.cells.push_back(parse_cell_json(cell).result);
  EXPECT_EQ(campaign_json(back), doc);
}

}  // namespace
}  // namespace commsched::exp
