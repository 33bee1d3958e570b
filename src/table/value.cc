#include "table/value.h"

#include <cmath>
#include <cstdlib>

#include "util/hash.h"
#include "util/string_util.h"

namespace ver {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Value Value::Parse(std::string_view text) {
  std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return Null();
  if (LooksLikeInt(trimmed)) {
    // Very long digit strings overflow int64; keep them as strings (they are
    // usually identifiers, not quantities).
    if (trimmed.size() <= 18 ||
        (trimmed.size() == 19 && (trimmed[0] == '-' || trimmed[0] == '+'))) {
      return Int(std::strtoll(std::string(trimmed).c_str(), nullptr, 10));
    }
    return String(std::string(trimmed));
  }
  if (LooksLikeDouble(trimmed)) {
    return Double(std::strtod(std::string(trimmed).c_str(), nullptr));
  }
  return String(std::string(trimmed));
}

std::string Value::ToText() const {
  switch (type_) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kDouble: {
      // "%.9f" with trailing zeros dropped. Lossy: Parse does not always
      // give the double back (1e-10 reads as int 0, 1e20 as a 21-digit
      // string, 0.1234567891 as 0.123456789).
      std::string s = FormatDouble(double_, 9);
      return s;
    }
    case ValueType::kString:
      return string_;
  }
  return "";
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return kNullValueHash;
    case ValueType::kInt:
      return HashIntValue(int_);
    case ValueType::kDouble:
      return HashDoubleValue(double_);
    case ValueType::kString:
      return HashStringValue(string_);
  }
  return 0;
}

int Value::Compare(const Value& other) const {
  // Rank: null(0) < numeric(1) < string(2).
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(type_), rb = rank(other.type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
        if (int_ == other.int_) return 0;
        return int_ < other.int_ ? -1 : 1;
      }
      double a = AsDouble(), b = other.AsDouble();
      if (a == b) return 0;
      return a < b ? -1 : 1;
    }
    default:
      return string_.compare(other.string_) < 0
                 ? -1
                 : (string_ == other.string_ ? 0 : 1);
  }
}

}  // namespace ver
