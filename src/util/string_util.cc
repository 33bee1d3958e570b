#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ver {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

bool IsAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

char LowerChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(LowerChar(c));
  return out;
}

void ToLowerInPlace(std::string* s) {
  for (char& c : *s) c = LowerChar(c);
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Tokenize(std::string_view s) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : s) {
    if (IsAlnum(c)) {
      cur.push_back(LowerChar(c));
    } else if (!cur.empty()) {
      tokens.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (LowerChar(a[i]) != LowerChar(b[i])) return false;
  }
  return true;
}

int CompareIgnoreCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    // std::string compares chars as unsigned, so these do too.
    const auto ca = static_cast<unsigned char>(LowerChar(a[i]));
    const auto cb = static_cast<unsigned char>(LowerChar(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool LooksLikeInt(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) return false;
  size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

bool LooksLikeDouble(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) return false;
  // strtod accepts "inf"/"nan"/hex floats; restrict to plain decimal forms so
  // value ingestion does not misclassify free text.
  bool seen_digit = false;
  bool seen_dot = false;
  bool seen_exp = false;
  size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c >= '0' && c <= '9') {
      seen_digit = true;
    } else if (c == '.' && !seen_dot && !seen_exp) {
      seen_dot = true;
    } else if ((c == 'e' || c == 'E') && seen_digit && !seen_exp) {
      seen_exp = true;
      if (i + 1 < s.size() && (s[i + 1] == '+' || s[i + 1] == '-')) ++i;
      seen_digit = false;  // exponent needs its own digits
    } else {
      return false;
    }
  }
  return seen_digit;
}

std::string FormatDouble(double v, int max_decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_decimals, v);
  std::string out(buf);
  if (out.find('.') != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (out[last] == '.') last -= 1;
    out.erase(last + 1);
  }
  return out;
}

}  // namespace ver
