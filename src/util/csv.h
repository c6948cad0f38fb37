// Minimal CSV reading/writing for sensor traces and bench output.
// Deliberately simple: comma-separated, no quoting (trace fields are numeric),
// '#' comment lines, tolerant of blank lines. Malformed rows are surfaced to
// the caller rather than silently dropped — the GDI data's missing/malformed
// packets are part of the paper's evaluation.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sentinel::csv {

/// Split a line on commas; fields are trimmed of surrounding whitespace.
std::vector<std::string> split(std::string_view line);

/// Allocation-free variant: split into string_views over `line`'s buffer.
/// `out` is cleared and reused; the views are valid only while the backing
/// buffer of `line` is. This is the hot-path splitter -- the trace readers
/// call it once per line with a reused scratch vector.
void split_into(std::string_view line, std::vector<std::string_view>& out);

/// Parse a field to double; nullopt on malformed content (empty, non-numeric,
/// trailing junk). Allocation-free (parse_fixed, else std::from_chars);
/// accepts an optional leading '+' and the usual inf/nan spellings, rejects
/// hex floats.
std::optional<double> parse_double(std::string_view field);

/// The exact fast path for one fixed-notation number (Clinger): an optional
/// '-', then at most 15 digits with at most one '.', and a digit after the
/// point if there is one. The mantissa (< 10^15 < 2^53) and 10^frac are both
/// exact doubles, so one division rounds correctly: the result has the bits
/// std::from_chars gives. Scans from `p` to the first byte that cannot
/// extend the number and returns that position, with the value in `out`;
/// returns nullptr when the text scanned is not of that shape (no digit,
/// more than 15, a bare trailing point). Every trace number -- read_trace's,
/// the batch reader's and parse_double's -- goes through here, so it is
/// inline: the record parser calls it once per field.
inline const char* parse_fixed(const char* p, const char* end, double& out) {
  const bool neg = p != end && *p == '-';
  p += neg;
  const char* const start = p;
  const char* point = nullptr;
  std::uint64_t mant = 0;  // wraps past 19 digits, which are declined anyway
  for (; p != end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d < 10) {
      mant = mant * 10 + d;
    } else if (*p == '.' && point == nullptr) {
      point = p;
    } else {
      break;
    }
  }
  const std::ptrdiff_t digits = p - start - (point != nullptr);
  const std::ptrdiff_t frac = point == nullptr ? 0 : p - point - 1;
  if (digits == 0 || digits > 15 || (point != nullptr && frac == 0)) return nullptr;
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
  const double v = static_cast<double>(mant) / kPow10[frac];
  out = neg ? -v : v;
  return p;
}

/// Join fields with commas.
std::string join(const std::vector<std::string>& fields);

/// Format a double with `precision` significant decimal digits after the
/// point, trimming to a compact form.
std::string format(double value, int precision = 6);

}  // namespace sentinel::csv
