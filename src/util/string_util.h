// Small string helpers used throughout parsing, tokenization and indexing.

#ifndef VER_UTIL_STRING_UTIL_H_
#define VER_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace ver {

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// ASCII lowercase in place — the allocation-free form for scratch buffers
/// reused across a scan.
void ToLowerInPlace(std::string* s);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits on a single delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Lowercased maximal alphanumeric runs: "Birth Rate/1000" -> {birth,rate,1000}.
std::vector<std::string> Tokenize(std::string_view s);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Sign (-1, 0 or 1) of ToLower(a).compare(ToLower(b)), without allocating.
int CompareIgnoreCase(std::string_view a, std::string_view b);

/// True when `s` parses fully as a (possibly signed) integer.
bool LooksLikeInt(std::string_view s);

/// True when `s` parses fully as a floating point number.
bool LooksLikeDouble(std::string_view s);

/// Fixed-precision formatting without trailing-zero noise ("3.5", "2").
std::string FormatDouble(double v, int max_decimals = 3);

}  // namespace ver

#endif  // VER_UTIL_STRING_UTIL_H_
