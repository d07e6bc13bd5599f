// String utilities used across the library: tokenizing, trimming, numeric
// parsing with error reporting, and SLURM hostlist expressions.
//
// SLURM topology.conf (and its node lists in general) uses a compact
// "hostlist" notation such as "n[0-3,8,10-11]" that expands to
// n0 n1 n2 n3 n8 n10 n11.  expand_hostlist/compress_hostlist implement the
// subset of that grammar needed for topology files (a single bracket group,
// optionally zero-padded indices), which covers the files SLURM itself emits.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace commsched {

/// Thrown on malformed input text (topology.conf, SWF logs, hostlists, ...).
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Remove leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty tokens are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on arbitrary whitespace runs; empty tokens are dropped.
std::vector<std::string> split_ws(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parse an integer, a leading minus allowed; std::nullopt on malformed
/// input or a value outside long long.
std::optional<long long> parse_int(std::string_view s);

/// Parse an int in [min, INT_MAX]; std::nullopt on malformed input or a
/// value out of that range (rather than one that wraps when narrowed).
std::optional<int> parse_int_at_least(std::string_view s, int min);

/// Parse an unsigned 64-bit integer, all 64 bits of it; std::nullopt on
/// malformed input, a sign or a value above UINT64_MAX.
std::optional<std::uint64_t> parse_uint64(std::string_view s);

/// Parse a floating-point value; std::nullopt on malformed input.
std::optional<double> parse_double(std::string_view s);

/// Expand a SLURM hostlist expression ("n[0-3,7]", "gpu[01-03]", or a plain
/// name "login1") into the individual host names, preserving zero padding.
/// Comma-separated lists of such expressions are also accepted.
/// Throws ParseError on malformed expressions.
std::vector<std::string> expand_hostlist(std::string_view expr);

/// Compress host names sharing a common alphabetic prefix back into a
/// hostlist expression. Names that do not fit the prefix+number pattern are
/// emitted verbatim, comma-separated.
std::string compress_hostlist(const std::vector<std::string>& hosts);

/// printf-style double formatting helper ("%.2f" etc.) returning std::string.
std::string format_double(double v, int precision);

}  // namespace commsched
