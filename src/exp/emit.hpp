// Shared output layer for benches/examples (DESIGN.md "Campaign engine &
// parallel execution"): the paper-shaped stdout table + bench_out/ CSV pair
// every harness used to hand-roll, plus the long-form per-cell campaign
// table (summary metrics and CommCache hit/miss stats per cell).
#pragma once

#include <string>

#include "exp/campaign.hpp"
#include "util/table.hpp"

namespace commsched::exp {

/// Print the table to stdout and write CSV to bench_out/<stem>.csv.
void emit(const std::string& title, const TextTable& table,
          const std::string& stem);

/// One row per cell, in cell order: axis labels, seeds, the RunSummary
/// metrics and the run's CommCache hit/miss counters. Deterministic — the
/// parity tests compare its CSV rendering bit for bit across thread counts.
TextTable campaign_table(const CampaignResult& result);

/// Machine-readable analogue of the long-form CSV: one JSON document,
/// {"cells": [<cell payload>, ...]} in cell order, each payload the same
/// deterministic object the persistence stream uses (exp/sink.hpp
/// cell_json: coordinates, labels, seeds, RunSummary, CacheStats).
/// Deterministic at any thread/shard count; regenerates the data behind
/// the BENCH_*.json snapshots and feeds plotting scripts.
std::string campaign_json(const CampaignResult& result);

/// Write campaign_table(result) as CSV to bench_out/<stem>.csv and
/// campaign_json(result) to bench_out/<stem>.json (atomically), with a
/// one-line stdout note (the long form is for plotting, not reading).
void emit_campaign(const std::string& title, const CampaignResult& result,
                   const std::string& stem);

/// The shard branch every harness takes before indexing its grid. Under
/// process sharding (resolve_shard(spec).count > 1, e.g. COMMSCHED_SHARD=1/2)
/// a run holds only its slice of the cells, and result.at() throws for the
/// other shards' cells. Then this emits the slice through emit_campaign to
/// bench_out/<stem>.s<i>of<N>.{csv,json}, prints the tools/campaign_merge
/// hint and returns true: the harness returns 0 instead of shaping
/// full-grid tables. An unsharded run emits nothing and returns false.
bool emit_shard_slice(const CampaignSpec& spec, const std::string& title,
                      const CampaignResult& result, const std::string& stem);

}  // namespace commsched::exp
