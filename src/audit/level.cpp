#include "audit/level.hpp"

#include <cstdlib>
#include <string>

#include "util/assert.hpp"

namespace commsched {

const char* audit_level_name(AuditLevel level) noexcept {
  switch (level) {
    case AuditLevel::kOff:
      return "off";
    case AuditLevel::kCheap:
      return "cheap";
    case AuditLevel::kFull:
      return "full";
  }
  return "off";
}

std::optional<AuditLevel> audit_level_from_string(
    std::string_view s) noexcept {
  if (s == "off") return AuditLevel::kOff;
  if (s == "cheap") return AuditLevel::kCheap;
  if (s == "full") return AuditLevel::kFull;
  return std::nullopt;
}

AuditLevel audit_level_from_env() {
  const char* value = std::getenv("COMMSCHED_AUDIT");
  if (value == nullptr || *value == '\0') return AuditLevel::kOff;
  const auto level = audit_level_from_string(value);
  COMMSCHED_ASSERT_MSG(level.has_value(),
                       "COMMSCHED_AUDIT must be off|cheap|full, got '" +
                           std::string(value) + "'");
  return *level;
}

SaOptions sa_options_for(SaOptions sa, AuditLevel level) noexcept {
  if (sa.verify_stride != 0) return sa;
  switch (level) {
    case AuditLevel::kOff: break;
    case AuditLevel::kCheap: sa.verify_stride = 64; break;
    case AuditLevel::kFull: sa.verify_stride = 1; break;
  }
  return sa;
}

}  // namespace commsched
