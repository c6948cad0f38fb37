#include "util/csv.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace sentinel::csv {

namespace {

// Branch-predictable whitespace test: same set as isspace in the C locale,
// without the per-character libc call (trim runs on every field of every
// line, so the call overhead was visible in the parse profile).
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace

std::vector<std::string> split(std::string_view line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      out.emplace_back(trim(line.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

void split_into(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  for (;;) {
    // memchr beats a per-character loop even at trace-line field widths.
    const void* c = std::memchr(line.data() + start, ',', line.size() - start);
    if (c == nullptr) {
      out.push_back(trim(line.substr(start)));
      return;
    }
    const auto pos = static_cast<std::size_t>(static_cast<const char*>(c) - line.data());
    out.push_back(trim(line.substr(start, pos - start)));
    start = pos + 1;
  }
}

std::optional<double> parse_double(std::string_view field) {
  field = trim(field);
  // from_chars does not take a leading '+' (strtod did); strip one, but only
  // when a value follows it -- "+-3" and a bare "+" stay malformed.
  if (!field.empty() && field.front() == '+') {
    field.remove_prefix(1);
    if (!field.empty() && (field.front() == '+' || field.front() == '-')) return std::nullopt;
  }
  if (field.empty()) return std::nullopt;

  // Nearly every field a trace file holds ("300.125", "21.53625") takes the
  // exact fast path; an exponent, a long mantissa or a bare trailing point
  // falls through to from_chars.
  double v = 0.0;
  const char* end = field.data() + field.size();
  if (parse_fixed(field.data(), end, v) == end) return v;
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += fields[i];
    if (i + 1 < fields.size()) out += ',';
  }
  return out;
}

std::string format(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  // Trim trailing zeros (but keep at least one digit after the point).
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (s.back() == '.') s.push_back('0');
  }
  return s;
}

}  // namespace sentinel::csv
