#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

#include "util/assert.hpp"

namespace commsched {

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::optional<long long> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<int> parse_int_at_least(std::string_view s, int min) {
  const auto v = parse_int(s);
  if (!v || *v < min || *v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<std::uint64_t> parse_uint64(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

namespace {

// Expand one "prefix[ranges]" or plain-name expression into `out`.
void expand_one(std::string_view expr, std::vector<std::string>& out) {
  const auto lb = expr.find('[');
  if (lb == std::string_view::npos) {
    if (expr.find(']') != std::string_view::npos)
      throw ParseError("hostlist: ']' without '[' in '" + std::string(expr) + "'");
    if (!expr.empty()) out.emplace_back(expr);
    return;
  }
  const auto rb = expr.find(']', lb);
  if (rb == std::string_view::npos)
    throw ParseError("hostlist: unterminated '[' in '" + std::string(expr) + "'");
  if (rb != expr.size() - 1)
    throw ParseError("hostlist: trailing text after ']' in '" +
                     std::string(expr) + "'");
  const std::string prefix(expr.substr(0, lb));
  const std::string_view body = expr.substr(lb + 1, rb - lb - 1);
  if (body.empty())
    throw ParseError("hostlist: empty range in '" + std::string(expr) + "'");

  for (const auto& piece : split(body, ',')) {
    const auto dash = piece.find('-');
    const auto emit = [&](std::string_view numtext, long long value) {
      // Preserve zero padding of the low bound's textual width.
      std::string num = std::to_string(value);
      if (numtext.size() > num.size())
        num.insert(0, numtext.size() - num.size(), '0');
      out.push_back(prefix + num);
    };
    if (dash == std::string::npos) {
      const auto v = parse_int(piece);
      if (!v) throw ParseError("hostlist: bad index '" + piece + "'");
      emit(piece, *v);
    } else {
      const std::string_view lo_text = std::string_view(piece).substr(0, dash);
      const std::string_view hi_text = std::string_view(piece).substr(dash + 1);
      const auto lo = parse_int(lo_text);
      const auto hi = parse_int(hi_text);
      if (!lo || !hi || *lo > *hi)
        throw ParseError("hostlist: bad range '" + piece + "'");
      for (long long v = *lo; v <= *hi; ++v) emit(lo_text, v);
    }
  }
}

// Split a comma-separated list of hostlist expressions, respecting brackets.
std::vector<std::string> split_exprs(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (const char c : s) {
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

struct NameParts {
  std::string prefix;
  std::string numtext;  // textual digits (may be zero padded); empty if none
  long long value = -1;
};

NameParts parse_name(const std::string& name) {
  std::size_t i = name.size();
  while (i > 0 && std::isdigit(static_cast<unsigned char>(name[i - 1]))) --i;
  NameParts p;
  p.prefix = name.substr(0, i);
  p.numtext = name.substr(i);
  if (!p.numtext.empty()) p.value = *parse_int(p.numtext);
  return p;
}

}  // namespace

std::vector<std::string> expand_hostlist(std::string_view expr) {
  std::vector<std::string> out;
  for (const auto& piece : split_exprs(trim(expr))) {
    const auto t = trim(piece);
    if (!t.empty()) expand_one(t, out);
  }
  return out;
}

std::string compress_hostlist(const std::vector<std::string>& hosts) {
  if (hosts.empty()) return "";
  // Group consecutive entries with identical prefix and numeric width
  // pattern; emit bracket ranges for runs of consecutive values.
  std::string result;
  std::size_t i = 0;
  while (i < hosts.size()) {
    const NameParts first = parse_name(hosts[i]);
    if (first.numtext.empty()) {
      if (!result.empty()) result += ',';
      result += hosts[i];
      ++i;
      continue;
    }
    // Collect the run of same-prefix, same-padding hosts.
    std::vector<NameParts> run{first};
    std::size_t j = i + 1;
    while (j < hosts.size()) {
      const NameParts p = parse_name(hosts[j]);
      if (p.prefix != first.prefix || p.numtext.empty() ||
          p.numtext.size() != first.numtext.size())
        break;
      run.push_back(p);
      ++j;
    }
    if (!result.empty()) result += ',';
    result += first.prefix + "[";
    std::string ranges;
    std::size_t k = 0;
    while (k < run.size()) {
      std::size_t end = k;
      while (end + 1 < run.size() && run[end + 1].value == run[end].value + 1)
        ++end;
      if (!ranges.empty()) ranges += ',';
      ranges += run[k].numtext;
      if (end > k) ranges += "-" + run[end].numtext;
      k = end + 1;
    }
    result += ranges + "]";
    i = j;
  }
  return result;
}

std::string format_double(double v, int precision) {
  // std::to_chars is locale-independent; snprintf("%.*f") reads LC_NUMERIC
  // and would change the decimal point under e.g. de_DE, breaking
  // byte-stable CSV/JSONL output. Fixed notation needs up to ~310 digits
  // before the point, plus the requested fraction digits.
  char buf[1200];
  const int p = std::clamp(precision, 0, 800);
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, p);
  COMMSCHED_ASSERT(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

}  // namespace commsched
