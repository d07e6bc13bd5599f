// Runtime audit levels (DESIGN.md "Correctness & analysis").
//
// The auditor's cost is selectable at runtime so the same binary serves both
// production-speed runs and hardened validation runs:
//   off   — no checking at all (the default);
//   cheap — O(event)-bounded checks: shadow ownership, release sets, event
//           monotonicity, backfill guards, cost sanity;
//   full  — cheap plus a from-scratch cross-validation of every ClusterState
//           counter and cost-model symmetry sampling after every event.
// The COMMSCHED_AUDIT environment variable selects the level for any entry
// point that does not set one explicitly (simulator config, netsim loop).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/sa_allocator.hpp"

namespace commsched {

enum class AuditLevel : std::uint8_t {
  kOff = 0,
  kCheap = 1,
  kFull = 2,
};

/// "off", "cheap" or "full".
const char* audit_level_name(AuditLevel level) noexcept;

/// Parse an audit-level name; nullopt on anything else.
std::optional<AuditLevel> audit_level_from_string(std::string_view s) noexcept;

/// Read COMMSCHED_AUDIT. Unset or empty means kOff; an unrecognized value
/// throws InvariantError (a silently ignored typo would fake coverage).
AuditLevel audit_level_from_env();

/// The sa options a run at `level` builds its policy with: sa's in-anneal
/// delta-vs-full check rides on the audit level, so an unset
/// SaOptions::verify_stride becomes 64 at cheap (every 64th accepted move
/// is re-priced in full) and 1 at full (every one). Off and an explicit
/// stride leave `sa` as it is. The simulator and allocd both go through it.
SaOptions sa_options_for(SaOptions sa, AuditLevel level) noexcept;

}  // namespace commsched
