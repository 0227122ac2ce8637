// printf-style string formatting helpers.  libstdc++ 12 does not ship
// std::format, so benches and table renderers use these instead.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace snug {

/// snprintf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);

/// Strict unsigned decimal: a non-empty run of digits that fits in 64
/// bits.  No sign, no whitespace, no wrap-around — unlike strtoull,
/// which reads "" as 0 and "-5" as 2^64 - 5.  `out` is untouched on
/// failure.
[[nodiscard]] bool parse_u64(const std::string& s, std::uint64_t& out);

/// Fixed-point percentage like "+13.9%" / "-0.5%".
std::string pct(double fraction, int decimals = 1);

}  // namespace snug
