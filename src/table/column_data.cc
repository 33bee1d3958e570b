#include "table/column_data.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <numeric>

#include "util/simd.h"
#include "util/string_util.h"

namespace ver {

namespace {

inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// 8-byte words holding `bytes` bytes: every array of a gathered column's
// block starts on a word boundary.
inline size_t WordsFor(size_t bytes) { return (bytes + 7) / 8; }

}  // namespace

const char* ColumnEncodingToString(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kInt64:
      return "int64";
    case ColumnEncoding::kDouble:
      return "double";
    case ColumnEncoding::kNumeric:
      return "numeric";
    case ColumnEncoding::kDict:
      return "dict";
  }
  return "unknown";
}

// --------------------------------- CellView --------------------------------

CellView CellView::Of(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return Null();
    case ValueType::kInt:
      return Int(v.AsInt());
    case ValueType::kDouble:
      return Double(v.AsDouble());
    case ValueType::kString:
      return String(v.AsString());
  }
  return Null();
}

Value CellView::ToValue() const {
  switch (type_) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value::Int(int_);
    case ValueType::kDouble:
      return Value::Double(double_);
    case ValueType::kString:
      return Value::String(std::string(AsStringView()));
  }
  return Value::Null();
}

std::string CellView::ToText() const {
  switch (type_) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kDouble:
      return FormatDouble(double_, 9);
    case ValueType::kString:
      return std::string(AsStringView());
  }
  return "";
}

void CellView::AppendTextTo(std::string* out) const {
  switch (type_) {
    case ValueType::kNull:
      return;
    case ValueType::kInt: {
      char buf[24];  // -2^63 is 20 chars
      auto res = std::to_chars(buf, buf + sizeof(buf), int_);
      out->append(buf, static_cast<size_t>(res.ptr - buf));
      return;
    }
    case ValueType::kDouble:
      out->append(FormatDouble(double_, 9));
      return;
    case ValueType::kString:
      out->append(AsStringView());
      return;
  }
}

uint64_t CellView::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return kNullValueHash;
    case ValueType::kInt:
      return HashIntValue(int_);
    case ValueType::kDouble:
      return HashDoubleValue(double_);
    case ValueType::kString:
      return HashStringValue(AsStringView());
  }
  return 0;
}

int CellView::Compare(const CellView& other) const {
  // Rank: null(0) < numeric(1) < string(2) — mirrors Value::Compare.
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
    default: {
      std::string_view a = AsStringView(), b = other.AsStringView();
      int c = a.compare(b);
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
  }
}

// -------------------------------- ColumnData -------------------------------

void ColumnData::EnsureOwned() {
  valid_words_.MaterializeOwned();
  ints_.MaterializeOwned();
  doubles_.MaterializeOwned();
  num_bits_.MaterializeOwned();
  int_tag_words_.MaterializeOwned();
  codes_.MaterializeOwned();
  entry_types_.MaterializeOwned();
  entry_payload_.MaterializeOwned();
  entry_lens_.MaterializeOwned();
  entry_hashes_.MaterializeOwned();
  arena_.MaterializeOwned();
  block_.Reset();
}

void ColumnData::AppendValidityBit(bool non_null) {
  size_t word = static_cast<size_t>(num_rows_) >> 6;
  if (valid_words_.size() <= word) valid_words_.mut().push_back(0);
  if (non_null) valid_words_.mut()[word] |= uint64_t{1} << (num_rows_ & 63);
}

void ColumnData::Reserve(int64_t rows) {
  VER_DCHECK(rows >= 0) << "negative reservation " << rows;
  EnsureOwned();
  if (rows > reserved_rows_) reserved_rows_ = rows;
  valid_words_.mut().reserve(static_cast<size_t>(rows + 63) / 64);
  switch (enc_) {
    case ColumnEncoding::kInt64:
      ints_.mut().reserve(static_cast<size_t>(rows));
      break;
    case ColumnEncoding::kDouble:
      doubles_.mut().reserve(static_cast<size_t>(rows));
      break;
    case ColumnEncoding::kNumeric:
      num_bits_.mut().reserve(static_cast<size_t>(rows));
      int_tag_words_.mut().reserve(static_cast<size_t>(rows + 63) / 64);
      break;
    case ColumnEncoding::kDict:
      codes_.mut().reserve(static_cast<size_t>(rows));
      break;
  }
}

void ColumnData::Append(const CellView& v) {
  EnsureOwned();
  switch (v.type()) {
    case ValueType::kNull:
      // Placeholder payload keeps per-row arrays aligned with the bitmap.
      switch (enc_) {
        case ColumnEncoding::kInt64:
          ints_.mut().push_back(0);
          break;
        case ColumnEncoding::kDouble:
          doubles_.mut().push_back(0);
          break;
        case ColumnEncoding::kNumeric: {
          size_t word = static_cast<size_t>(num_rows_) >> 6;
          if (int_tag_words_.size() <= word) int_tag_words_.mut().push_back(0);
          num_bits_.mut().push_back(0);
          break;
        }
        case ColumnEncoding::kDict:
          codes_.mut().push_back(0);
          break;
      }
      AppendValidityBit(false);
      ++num_nulls_;
      ++num_rows_;
      return;
    case ValueType::kInt:
      if (enc_ == ColumnEncoding::kDouble) PromoteToNumeric();
      switch (enc_) {
        case ColumnEncoding::kInt64:
          ints_.mut().push_back(v.AsInt());
          break;
        case ColumnEncoding::kNumeric: {
          size_t word = static_cast<size_t>(num_rows_) >> 6;
          if (int_tag_words_.size() <= word) int_tag_words_.mut().push_back(0);
          int_tag_words_.mut()[word] |= uint64_t{1} << (num_rows_ & 63);
          num_bits_.mut().push_back(static_cast<uint64_t>(v.AsInt()));
          break;
        }
        case ColumnEncoding::kDict:
          codes_.mut().push_back(Intern(v));
          break;
        case ColumnEncoding::kDouble:
          break;  // unreachable: promoted above
      }
      ++num_ints_;
      break;
    case ValueType::kDouble:
      if (enc_ == ColumnEncoding::kInt64) {
        // A column that only held nulls so far can simply become a double
        // column; one that already holds ints needs the exact mixed layout.
        if (num_ints_ == 0) {
          BecomeDouble();
        } else {
          PromoteToNumeric();
        }
      }
      switch (enc_) {
        case ColumnEncoding::kDouble:
          doubles_.mut().push_back(v.AsDouble());
          break;
        case ColumnEncoding::kNumeric: {
          size_t word = static_cast<size_t>(num_rows_) >> 6;
          if (int_tag_words_.size() <= word) int_tag_words_.mut().push_back(0);
          num_bits_.mut().push_back(DoubleBits(v.AsDouble()));
          break;
        }
        case ColumnEncoding::kDict:
          codes_.mut().push_back(Intern(v));
          break;
        case ColumnEncoding::kInt64:
          break;  // unreachable: converted above
      }
      ++num_doubles_;
      break;
    case ValueType::kString:
      if (enc_ != ColumnEncoding::kDict) PromoteToDict();
      codes_.mut().push_back(Intern(v));
      ++num_strings_;
      break;
  }
  AppendValidityBit(true);
  ++num_rows_;
}

void ColumnData::BecomeDouble() {
  doubles_.mut().reserve(
      static_cast<size_t>(std::max(reserved_rows_, num_rows_)));
  doubles_.mut().assign(static_cast<size_t>(ints_.size()), 0.0);
  ints_ = std::vector<int64_t>();
  enc_ = ColumnEncoding::kDouble;
}

void ColumnData::PromoteToNumeric() {
  num_bits_.mut().reserve(
      static_cast<size_t>(std::max(reserved_rows_, num_rows_)));
  if (enc_ == ColumnEncoding::kInt64) {
    for (int64_t v : ints_) num_bits_.mut().push_back(static_cast<uint64_t>(v));
    // Every non-null cell so far is an int: the validity bitmap doubles as
    // the initial int-tag bitmap.
    int_tag_words_ = valid_words_;
    ints_ = std::vector<int64_t>();
  } else {
    for (double v : doubles_) num_bits_.mut().push_back(DoubleBits(v));
    int_tag_words_.mut().assign(static_cast<size_t>(valid_words_.size()), 0);
    doubles_ = std::vector<double>();
  }
  enc_ = ColumnEncoding::kNumeric;
}

void ColumnData::PromoteToDict() {
  std::vector<uint32_t> codes;
  codes.reserve(static_cast<size_t>(std::max(reserved_rows_, num_rows_)));
  codes.resize(static_cast<size_t>(num_rows_), 0);
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (!is_null(r)) codes[r] = Intern(cell(r));
  }
  codes_ = std::move(codes);
  ints_ = std::vector<int64_t>();
  doubles_ = std::vector<double>();
  num_bits_ = std::vector<uint64_t>();
  int_tag_words_ = std::vector<uint64_t>();
  enc_ = ColumnEncoding::kDict;
}

void ColumnData::GatherScratch::Reset(size_t max_keys, size_t rows) {
  size_t cap = 16;
  while (cap < max_keys * 2) cap <<= 1;
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  codes_.resize(rows);
  entries_.clear();
}

uint32_t& ColumnData::GatherScratch::Map(uint32_t code) {
  const uint32_t key = code + 1;
  size_t i = Mix64(code) & mask_;
  while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask_;
  slots_[i].key = key;
  return slots_[i].value;
}

ColumnData ColumnData::Gather(const ColumnData& src, const int64_t* rows,
                              int64_t n, GatherScratch* scratch) {
  VER_DCHECK(n >= 0) << "negative gather length " << n;
  ColumnData out;
  out.num_rows_ = n;
  const size_t count = static_cast<size_t>(n);
  const size_t words = static_cast<size_t>(n + 63) / 64;

  // Remap pass: the type tallies Append() would keep, which fix the
  // encoding, and for a dictionary source the output code of every row,
  // with each selected entry numbered on first sight — the dictionary
  // Intern() would build, in first-occurrence order. A map over at most
  // min(selected rows, source dictionary) keys keeps a gather O(selected
  // rows) however large the source dictionary is.
  size_t arena_bytes = 0;
  if (src.is_dict()) {
    scratch->Reset(std::min(count, src.dict_size()), count);
    for (size_t i = 0; i < count; ++i) {
      if (src.is_null(rows[i])) {
        ++out.num_nulls_;
        scratch->codes_[i] = 0;
        continue;
      }
      const uint32_t code = src.codes_[rows[i]];
      uint32_t& mapped = scratch->Map(code);
      const ValueType type = static_cast<ValueType>(src.entry_types_[code]);
      if (mapped == GatherScratch::kUnmapped) {
        mapped = static_cast<uint32_t>(scratch->entries_.size());
        scratch->entries_.push_back(code);
        if (type == ValueType::kString) arena_bytes += src.entry_lens_[code];
      }
      scratch->codes_[i] = mapped;
      if (type == ValueType::kInt) {
        ++out.num_ints_;
      } else if (type == ValueType::kDouble) {
        ++out.num_doubles_;
      } else {
        ++out.num_strings_;
      }
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      if (src.is_null(rows[i])) {
        ++out.num_nulls_;
      } else if (src.cell(rows[i]).type() == ValueType::kInt) {
        ++out.num_ints_;
      } else {
        ++out.num_doubles_;
      }
    }
  }

  // The encoding appends reach: any string makes a dictionary; ints and
  // doubles together need the mixed layout whatever their order; doubles
  // alone (nulls aside) stay double.
  if (out.num_strings_ > 0) {
    out.enc_ = ColumnEncoding::kDict;
  } else if (out.num_ints_ > 0 && out.num_doubles_ > 0) {
    out.enc_ = ColumnEncoding::kNumeric;
  } else if (out.num_doubles_ > 0) {
    out.enc_ = ColumnEncoding::kDouble;
  }

  // One block, exactly sized: the validity bitmap, then the payload arrays
  // of that encoding.
  const size_t entries = out.is_dict() ? scratch->entries_.size() : 0;
  size_t total = words;
  if (out.is_dict()) {
    total += WordsFor(count * sizeof(uint32_t)) + WordsFor(entries) +
             entries + WordsFor(entries * sizeof(uint32_t)) + entries +
             WordsFor(arena_bytes);
  } else {
    total += count + (out.enc_ == ColumnEncoding::kNumeric ? words : 0);
  }
  if (total == 0) return out;  // nothing selected: no block
  uint64_t* next = out.block_.Allocate(total);
  auto take = [&next](size_t words_taken) {
    uint64_t* p = next;
    next += words_taken;
    return p;
  };

  uint64_t* valid = take(words);
  for (size_t i = 0; i < count; ++i) {
    if (!src.is_null(rows[i])) valid[i >> 6] |= uint64_t{1} << (i & 63);
  }
  out.valid_words_.Borrow(valid, words);

  switch (out.enc_) {
    case ColumnEncoding::kDict: {
      auto* codes = reinterpret_cast<uint32_t*>(
          take(WordsFor(count * sizeof(uint32_t))));
      auto* types = reinterpret_cast<uint8_t*>(take(WordsFor(entries)));
      uint64_t* payload = take(entries);
      auto* lens = reinterpret_cast<uint32_t*>(
          take(WordsFor(entries * sizeof(uint32_t))));
      uint64_t* hashes = take(entries);
      char* arena = reinterpret_cast<char*>(take(WordsFor(arena_bytes)));
      if (count > 0) {
        std::memcpy(codes, scratch->codes_.data(), count * sizeof(uint32_t));
      }
      size_t arena_used = 0;
      for (size_t e = 0; e < entries; ++e) {
        const uint32_t code = scratch->entries_[e];
        types[e] = src.entry_types_[code];
        hashes[e] = src.entry_hashes_[code];
        if (static_cast<ValueType>(types[e]) == ValueType::kString) {
          const uint32_t len = src.entry_lens_[code];
          payload[e] = arena_used;
          lens[e] = len;
          std::memcpy(arena + arena_used,
                      src.arena_.data() + src.entry_payload_[code], len);
          arena_used += len;
        } else {
          payload[e] = src.entry_payload_[code];
        }
      }
      out.codes_.Borrow(codes, count);
      out.entry_types_.Borrow(types, entries);
      out.entry_payload_.Borrow(payload, entries);
      out.entry_lens_.Borrow(lens, entries);
      out.entry_hashes_.Borrow(hashes, entries);
      out.arena_.Borrow(arena, arena_bytes);
      break;
    }
    case ColumnEncoding::kNumeric: {
      uint64_t* bits = take(count);
      uint64_t* int_tags = take(words);
      for (size_t i = 0; i < count; ++i) {
        if (src.is_null(rows[i])) continue;
        const CellView v = src.cell(rows[i]);
        if (v.type() == ValueType::kInt) {
          int_tags[i >> 6] |= uint64_t{1} << (i & 63);
          bits[i] = static_cast<uint64_t>(v.AsInt());
        } else {
          bits[i] = DoubleBits(v.AsDouble());
        }
      }
      out.num_bits_.Borrow(bits, count);
      out.int_tag_words_.Borrow(int_tags, words);
      break;
    }
    case ColumnEncoding::kDouble: {
      auto* doubles = reinterpret_cast<double*>(take(count));
      for (size_t i = 0; i < count; ++i) {
        if (!src.is_null(rows[i])) doubles[i] = src.cell(rows[i]).AsDouble();
      }
      out.doubles_.Borrow(doubles, count);
      break;
    }
    case ColumnEncoding::kInt64: {
      auto* ints = reinterpret_cast<int64_t*>(take(count));
      for (size_t i = 0; i < count; ++i) {
        if (!src.is_null(rows[i])) ints[i] = src.cell(rows[i]).AsInt();
      }
      out.ints_.Borrow(ints, count);
      break;
    }
  }
  return out;
}

bool ColumnData::EntryEquals(uint32_t code, const CellView& v) const {
  if (static_cast<ValueType>(entry_types_[code]) != v.type()) return false;
  switch (v.type()) {
    case ValueType::kInt:
      return static_cast<int64_t>(entry_payload_[code]) == v.AsInt();
    case ValueType::kDouble:
      // Bit identity (not numeric equality) so cells render back exactly.
      return entry_payload_[code] == DoubleBits(v.AsDouble());
    case ValueType::kString: {
      std::string_view s = v.AsStringView();
      return entry_lens_[code] == s.size() &&
             std::memcmp(arena_.data() + entry_payload_[code], s.data(),
                         s.size()) == 0;
    }
    case ValueType::kNull:
      return false;  // nulls live in the bitmap, never in the dictionary
  }
  return false;
}

uint32_t ColumnData::Intern(const CellView& v) {
  // The intern map is absent after Seal() or DropInternMap(); rebuild it
  // before deduping so existing entries are never duplicated.
  if (sealed_ || (lookup_.empty() && !entry_types_.empty())) EnsureLookup();
  uint64_t h = v.Hash();
  std::vector<uint32_t>& bucket = lookup_[h];
  for (uint32_t c : bucket) {
    if (EntryEquals(c, v)) return c;
  }
  // Codes are uint32; a column with 2^32 distinct cells would silently wrap
  // new codes onto existing entries. Checked per new *entry*, not per row,
  // so the cost is invisible.
  VER_CHECK(entry_types_.size() < UINT32_MAX)
      << "dictionary overflow: 2^32 distinct cells in one column";
  uint32_t code = static_cast<uint32_t>(entry_types_.size());
  entry_types_.mut().push_back(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt:
      entry_payload_.mut().push_back(static_cast<uint64_t>(v.AsInt()));
      entry_lens_.mut().push_back(0);
      break;
    case ValueType::kDouble:
      entry_payload_.mut().push_back(DoubleBits(v.AsDouble()));
      entry_lens_.mut().push_back(0);
      break;
    case ValueType::kString: {
      std::string_view s = v.AsStringView();
      entry_payload_.mut().push_back(arena_.size());
      entry_lens_.mut().push_back(static_cast<uint32_t>(s.size()));
      arena_.mut().append(s.data(), s.size());
      break;
    }
    case ValueType::kNull:
      break;  // unreachable: callers never intern nulls
  }
  entry_hashes_.mut().push_back(h);
  bucket.push_back(code);
  return code;
}

void ColumnData::EnsureLookup() {
  lookup_.clear();
  lookup_.reserve(entry_hashes_.size());
  for (uint32_t c = 0; c < entry_hashes_.size(); ++c) {
    lookup_[entry_hashes_[c]].push_back(c);
  }
  sealed_ = false;
}

CellView ColumnData::dict_entry(uint32_t code) const {
  VER_DCHECK(code < entry_types_.size())
      << "code " << code << " outside dictionary of " << entry_types_.size();
  switch (static_cast<ValueType>(entry_types_[code])) {
    case ValueType::kInt:
      return CellView::Int(static_cast<int64_t>(entry_payload_[code]));
    case ValueType::kDouble:
      return CellView::Double(BitsToDouble(entry_payload_[code]));
    case ValueType::kString:
      return CellView::String(std::string_view(
          arena_.data() + entry_payload_[code], entry_lens_[code]));
    case ValueType::kNull:
      break;
  }
  return CellView::Null();
}

CellView ColumnData::cell(int64_t row) const {
  if (is_null(row)) return CellView::Null();
  switch (enc_) {
    case ColumnEncoding::kInt64:
      return CellView::Int(ints_[row]);
    case ColumnEncoding::kDouble:
      return CellView::Double(doubles_[row]);
    case ColumnEncoding::kNumeric: {
      bool is_int = (int_tag_words_[static_cast<size_t>(row) >> 6] &
                     (uint64_t{1} << (row & 63))) != 0;
      return is_int ? CellView::Int(static_cast<int64_t>(num_bits_[row]))
                    : CellView::Double(BitsToDouble(num_bits_[row]));
    }
    case ColumnEncoding::kDict:
      return dict_entry(codes_[row]);
  }
  return CellView::Null();
}

uint64_t ColumnData::CellHash(int64_t row) const {
  if (is_null(row)) return kNullValueHash;
  switch (enc_) {
    case ColumnEncoding::kInt64:
      return HashIntValue(ints_[row]);
    case ColumnEncoding::kDouble:
      return HashDoubleValue(doubles_[row]);
    case ColumnEncoding::kNumeric: {
      bool is_int = (int_tag_words_[static_cast<size_t>(row) >> 6] &
                     (uint64_t{1} << (row & 63))) != 0;
      return is_int ? HashIntValue(static_cast<int64_t>(num_bits_[row]))
                    : HashDoubleValue(BitsToDouble(num_bits_[row]));
    }
    case ColumnEncoding::kDict:
      return entry_hashes_[codes_[row]];
  }
  return kNullValueHash;
}

void ColumnData::FillCellHashes(int64_t base, size_t len,
                                uint64_t* buf) const {
  VER_DCHECK(base >= 0 && base + static_cast<int64_t>(len) <= num_rows_)
      << "block [" << base << ", " << base + static_cast<int64_t>(len)
      << ") outside column of " << num_rows_;
  const bool no_nulls = num_nulls_ == 0;
  switch (enc_) {
    case ColumnEncoding::kInt64:
      if (no_nulls) {
        simd::HashInt64Cells(ints_.data() + base, len, buf);
        return;
      }
      for (size_t i = 0; i < len; ++i) {
        buf[i] = is_null(base + static_cast<int64_t>(i))
                     ? kNullValueHash
                     : HashIntValue(ints_[base + static_cast<int64_t>(i)]);
      }
      return;
    case ColumnEncoding::kDouble:
      if (no_nulls) {
        simd::HashDoubleCells(doubles_.data() + base, len, buf);
        return;
      }
      for (size_t i = 0; i < len; ++i) {
        int64_t r = base + static_cast<int64_t>(i);
        buf[i] = is_null(r) ? kNullValueHash : HashDoubleValue(doubles_[r]);
      }
      return;
    case ColumnEncoding::kNumeric:
      for (size_t i = 0; i < len; ++i) {
        int64_t r = base + static_cast<int64_t>(i);
        if (!no_nulls && is_null(r)) {
          buf[i] = kNullValueHash;
          continue;
        }
        bool is_int = (int_tag_words_[static_cast<size_t>(r) >> 6] &
                       (uint64_t{1} << (r & 63))) != 0;
        buf[i] = is_int ? HashIntValue(static_cast<int64_t>(num_bits_[r]))
                        : HashDoubleValue(BitsToDouble(num_bits_[r]));
      }
      return;
    case ColumnEncoding::kDict:
      if (no_nulls) {
        const uint32_t* codes = codes_.data() + base;
        const uint64_t* entry_hashes = entry_hashes_.data();
        for (size_t i = 0; i < len; ++i) buf[i] = entry_hashes[codes[i]];
        return;
      }
      for (size_t i = 0; i < len; ++i) {
        int64_t r = base + static_cast<int64_t>(i);
        buf[i] = is_null(r) ? kNullValueHash : entry_hashes_[codes_[r]];
      }
      return;
  }
}

void ColumnData::CombineCellHashesInto(uint64_t* acc, int64_t n) const {
  // One staged path for every encoding: hash a block of cells, then fold
  // it into the row hashes.
  uint64_t buf[simd::kBlockCells];
  for (int64_t base = 0; base < n;
       base += static_cast<int64_t>(simd::kBlockCells)) {
    size_t len = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(simd::kBlockCells), n - base));
    FillCellHashes(base, len, buf);
    simd::CombineHashes(acc + base, buf, len);
  }
}

void ColumnData::CombineCellHashesInto(uint64_t* acc, const int64_t* rows,
                                       int64_t n) const {
  uint64_t buf[simd::kBlockCells];
  for (int64_t base = 0; base < n;
       base += static_cast<int64_t>(simd::kBlockCells)) {
    size_t len = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(simd::kBlockCells), n - base));
    for (size_t i = 0; i < len; ++i) buf[i] = CellHash(rows[base + i]);
    simd::CombineHashes(acc + base, buf, len);
  }
}

void ColumnData::CellHashesInto(uint64_t* out, int64_t n) const {
  if (n > 0) FillCellHashes(0, static_cast<size_t>(n), out);
}

std::vector<uint64_t> ColumnData::DistinctHashes() const {
  // Dictionary columns answer from cached entry hashes (every entry is
  // referenced by at least one row; sort+unique merges int/double twins,
  // which hash equal by design, exactly like seed per-cell hashing did).
  std::vector<uint64_t> hashes;
  if (is_dict()) {
    hashes.assign(entry_hashes_.begin(), entry_hashes_.end());
  } else if (num_nulls_ == 0) {
    hashes.resize(static_cast<size_t>(num_rows_));
    FillCellHashes(0, hashes.size(), hashes.data());
  } else {
    hashes.reserve(static_cast<size_t>(num_rows_ - num_nulls_));
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (!is_null(r)) hashes.push_back(CellHash(r));
    }
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

int64_t ColumnData::DistinctCount(bool count_null) const {
  std::vector<uint64_t> distinct = DistinctHashes();
  int64_t count = static_cast<int64_t>(distinct.size());
  // Counting null adds one value unless some non-null cell already hashes
  // to the null sentinel (the old set-insert semantics, preserved).
  if (count_null && num_nulls_ > 0 &&
      !std::binary_search(distinct.begin(), distinct.end(), kNullValueHash)) {
    ++count;
  }
  return count;
}

void ColumnData::Seal() {
  if (sealed_) return;
  EnsureOwned();
  if (enc_ == ColumnEncoding::kDict && !entry_types_.empty()) {
    uint32_t n = static_cast<uint32_t>(entry_types_.size());
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      int c = dict_entry(a).Compare(dict_entry(b));
      if (c != 0) return c < 0;
      // Equal-comparing but distinct entries (2 vs 2.0, 0.0 vs -0.0):
      // deterministic tie-break on type tag then payload bits.
      if (entry_types_[a] != entry_types_[b]) {
        return entry_types_[a] < entry_types_[b];
      }
      return entry_payload_[a] < entry_payload_[b];
    });
    std::vector<uint32_t> rank(n);
    for (uint32_t i = 0; i < n; ++i) rank[order[i]] = i;

    std::vector<uint8_t> types(n);
    std::vector<uint64_t> payload(n);
    std::vector<uint32_t> lens(n);
    std::vector<uint64_t> hashes(n);
    std::string arena;
    arena.reserve(arena_.size());
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t old = order[i];
      types[i] = entry_types_[old];
      hashes[i] = entry_hashes_[old];
      if (static_cast<ValueType>(entry_types_[old]) == ValueType::kString) {
        payload[i] = arena.size();
        lens[i] = entry_lens_[old];
        arena.append(arena_.data() + entry_payload_[old], entry_lens_[old]);
      } else {
        payload[i] = entry_payload_[old];
        lens[i] = 0;
      }
    }
    entry_types_ = std::move(types);
    entry_payload_ = std::move(payload);
    entry_lens_ = std::move(lens);
    entry_hashes_ = std::move(hashes);
    arena_ = std::move(arena);
    std::vector<uint32_t>& code_vec = codes_.mut();
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (!is_null(r)) code_vec[r] = rank[code_vec[r]];
    }
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>>().swap(lookup_);
  // Serving layout: drop ingest slack (growth-doubling capacity and
  // over-reserve) — sealed columns are read-only until the next append.
  valid_words_.mut().shrink_to_fit();
  ints_.mut().shrink_to_fit();
  doubles_.mut().shrink_to_fit();
  num_bits_.mut().shrink_to_fit();
  int_tag_words_.mut().shrink_to_fit();
  codes_.mut().shrink_to_fit();
  entry_types_.mut().shrink_to_fit();
  entry_payload_.mut().shrink_to_fit();
  entry_lens_.mut().shrink_to_fit();
  entry_hashes_.mut().shrink_to_fit();
  arena_.mut().shrink_to_fit();
  sealed_ = true;
}

size_t ColumnData::ApproxBytes() const {
  // Paged views report 0 here: their bytes live in the snapshot map and
  // are accounted by the BufferPool's resident counter, not the heap.
  size_t bytes = sizeof(*this);
  bytes += valid_words_.capacity_bytes();
  bytes += ints_.capacity_bytes();
  bytes += doubles_.capacity_bytes();
  bytes += num_bits_.capacity_bytes();
  bytes += int_tag_words_.capacity_bytes();
  bytes += codes_.capacity_bytes();
  bytes += entry_types_.capacity_bytes();
  bytes += entry_payload_.capacity_bytes();
  bytes += entry_lens_.capacity_bytes();
  bytes += entry_hashes_.capacity_bytes();
  bytes += arena_.capacity_bytes();
  // A gathered column's arrays borrow its block and report 0 above.
  bytes += block_.bytes();
  // Intern map estimate: node + bucket overhead per distinct hash plus the
  // small code vectors. Zero once the column is sealed.
  bytes += lookup_.size() * 64;
  return bytes;
}

void ColumnData::SaveTo(SerdeWriter* w) const {
  w->WriteU8(static_cast<uint8_t>(enc_));
  w->WriteBool(sealed_);
  w->WriteI64(num_rows_);
  w->WriteI64(num_nulls_);
  w->WriteI64(num_ints_);
  w->WriteI64(num_doubles_);
  w->WriteI64(num_strings_);
  valid_words_.SaveTo(w);
  switch (enc_) {
    case ColumnEncoding::kInt64:
      ints_.SaveTo(w);
      break;
    case ColumnEncoding::kDouble:
      doubles_.SaveTo(w);
      break;
    case ColumnEncoding::kNumeric:
      num_bits_.SaveTo(w);
      int_tag_words_.SaveTo(w);
      break;
    case ColumnEncoding::kDict:
      codes_.SaveTo(w);
      entry_types_.SaveTo(w);
      entry_payload_.SaveTo(w);
      entry_lens_.SaveTo(w);
      entry_hashes_.SaveTo(w);
      arena_.SaveTo(w);
      break;
  }
}

Status ColumnData::LoadFrom(SerdeReader* r, bool borrow) {
  uint8_t enc;
  VER_RETURN_IF_ERROR(r->ReadU8(&enc));
  if (enc > static_cast<uint8_t>(ColumnEncoding::kDict)) {
    return Status::IOError("corrupt column: unknown encoding " +
                           std::to_string(enc));
  }
  enc_ = static_cast<ColumnEncoding>(enc);
  VER_RETURN_IF_ERROR(r->ReadBool(&sealed_));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_rows_));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_nulls_));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_ints_));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_doubles_));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_strings_));
  // Bound every tally by the row count before doing arithmetic on them, so
  // crafted values can neither overflow the sum below (UB) nor the +63 in
  // the bitmap sizing.
  constexpr int64_t kMaxRows = int64_t{1} << 56;
  if (num_rows_ < 0 || num_rows_ > kMaxRows) {
    return Status::IOError("corrupt column: implausible row count " +
                           std::to_string(num_rows_));
  }
  for (int64_t tally : {num_nulls_, num_ints_, num_doubles_, num_strings_}) {
    if (tally < 0 || tally > num_rows_) {
      return Status::IOError("corrupt column: inconsistent cell tallies");
    }
  }
  if (static_cast<uint64_t>(num_nulls_) + static_cast<uint64_t>(num_ints_) +
          static_cast<uint64_t>(num_doubles_) +
          static_cast<uint64_t>(num_strings_) !=
      static_cast<uint64_t>(num_rows_)) {
    return Status::IOError("corrupt column: inconsistent cell tallies");
  }
  VER_RETURN_IF_ERROR(valid_words_.LoadFrom(r, borrow, "validity bitmap"));
  size_t want_words = static_cast<size_t>(num_rows_ + 63) / 64;
  if (valid_words_.size() != want_words) {
    return Status::IOError("corrupt column: validity bitmap has " +
                           std::to_string(valid_words_.size()) +
                           " words, expected " + std::to_string(want_words));
  }
  lookup_.clear();
  auto check_rows = [this](size_t got, const char* what) {
    if (got != static_cast<size_t>(num_rows_)) {
      return Status::IOError("corrupt column: " + std::string(what) +
                             " holds " + std::to_string(got) +
                             " cells, expected " + std::to_string(num_rows_));
    }
    return Status::OK();
  };
  switch (enc_) {
    case ColumnEncoding::kInt64:
      VER_RETURN_IF_ERROR(ints_.LoadFrom(r, borrow, "int payload"));
      VER_RETURN_IF_ERROR(check_rows(ints_.size(), "int payload"));
      break;
    case ColumnEncoding::kDouble:
      VER_RETURN_IF_ERROR(doubles_.LoadFrom(r, borrow, "double payload"));
      VER_RETURN_IF_ERROR(check_rows(doubles_.size(), "double payload"));
      break;
    case ColumnEncoding::kNumeric:
      VER_RETURN_IF_ERROR(num_bits_.LoadFrom(r, borrow, "numeric payload"));
      VER_RETURN_IF_ERROR(check_rows(num_bits_.size(), "numeric payload"));
      VER_RETURN_IF_ERROR(
          int_tag_words_.LoadFrom(r, borrow, "int-tag bitmap"));
      if (int_tag_words_.size() != want_words) {
        return Status::IOError("corrupt column: int-tag bitmap size mismatch");
      }
      break;
    case ColumnEncoding::kDict: {
      VER_RETURN_IF_ERROR(codes_.LoadFrom(r, borrow, "code array"));
      VER_RETURN_IF_ERROR(check_rows(codes_.size(), "code array"));
      VER_RETURN_IF_ERROR(
          entry_types_.LoadFrom(r, borrow, "dictionary types"));
      VER_RETURN_IF_ERROR(
          entry_payload_.LoadFrom(r, borrow, "dictionary payloads"));
      VER_RETURN_IF_ERROR(
          entry_lens_.LoadFrom(r, borrow, "dictionary lengths"));
      VER_RETURN_IF_ERROR(
          entry_hashes_.LoadFrom(r, borrow, "dictionary hashes"));
      VER_RETURN_IF_ERROR(arena_.LoadFrom(r, borrow, "dictionary arena"));
      size_t n = entry_types_.size();
      if (entry_payload_.size() != n || entry_lens_.size() != n ||
          entry_hashes_.size() != n) {
        return Status::IOError("corrupt column: dictionary arrays disagree");
      }
      break;
    }
  }
  // Paged loads defer the content scans to the first ValidateContent call
  // (TableRepository::CheckTable); see the header comment. An unsealed
  // column is scanned now, because TableRepository::AddTable seals it by
  // reading every code and dictionary entry.
  if (borrow && sealed_) return Status::OK();
  return ValidateContent();
}

Status ColumnData::ValidateContent() const {
  if (enc_ == ColumnEncoding::kDict) {
    const size_t n = entry_types_.size();
    for (size_t i = 0; i < n; ++i) {
      ValueType t = static_cast<ValueType>(entry_types_[i]);
      if (t != ValueType::kInt && t != ValueType::kDouble &&
          t != ValueType::kString) {
        return Status::IOError("corrupt column: dictionary entry " +
                               std::to_string(i) + " has invalid type");
      }
      if (t == ValueType::kString &&
          (entry_lens_[i] > arena_.size() ||
           entry_payload_[i] > arena_.size() - entry_lens_[i])) {
        return Status::IOError("corrupt column: dictionary entry " +
                               std::to_string(i) + " exceeds arena");
      }
    }
    for (int64_t row = 0; row < num_rows_; ++row) {
      if (!is_null(row) && codes_[row] >= n) {
        return Status::IOError("corrupt column: row " + std::to_string(row) +
                               " code out of dictionary range");
      }
    }
  }
  // The bitmap is the source of truth for nulls; the stored tally must
  // agree with it.
  int64_t set_bits = 0;
  for (uint64_t wv : valid_words_) set_bits += __builtin_popcountll(wv);
  if (set_bits != num_rows_ - num_nulls_) {
    return Status::IOError("corrupt column: validity bitmap popcount " +
                           std::to_string(set_bits) + " disagrees with " +
                           std::to_string(num_rows_ - num_nulls_) +
                           " non-null cells");
  }
  return Status::OK();
}

}  // namespace ver
