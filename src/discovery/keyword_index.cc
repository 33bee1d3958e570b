#include "discovery/keyword_index.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "util/bitset.h"
#include "util/check.h"
#include "util/levenshtein.h"
#include "util/string_util.h"

namespace ver {

namespace {

ColumnRef DecodeColumnRef(uint64_t encoded) {
  return ColumnRef{static_cast<int32_t>(encoded >> 32),
                   static_cast<int32_t>(encoded & 0xffffffffULL)};
}

// The first 8 bytes of `s`, big-endian and zero-padded: comparing two of
// these orders the strings by their first 8 bytes exactly as string_view
// comparison does, so a sort settles most pairs on one integer compare.
uint64_t BytePrefix(std::string_view s) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    prefix <<= 8;
    if (i < s.size()) prefix |= static_cast<unsigned char>(s[i]);
  }
  return prefix;
}

// Accumulates one posting store in build order, then lays it out flat.
// Texts are interned into dense ids (first-seen order) in one arena, so
// posting a cell costs a hash probe and no allocation per distinct text.
class PostingsBuilder {
 public:
  // Posts `ref` under `text`. Refs arrive in ascending order; a text the
  // same column already posted is skipped.
  void Post(std::string_view text, const ColumnRef& ref) {
    uint32_t id = Intern(text);
    uint64_t encoded = ref.Encode();
    if (last_ref_[id] == encoded) return;
    last_ref_[id] = encoded;
    postings_.push_back({id, encoded});
  }

  // Writes keys in ascending byte order, each with its postings in the
  // order they were posted.
  void Finish(PagedView<char>* blob, PagedView<uint32_t>* key_offsets,
              PagedView<uint64_t>* columns,
              PagedView<uint32_t>* posting_offsets) const {
    const size_t n = ends_.size();
    struct SortKey {
      uint64_t prefix;
      uint32_t id;
    };
    std::vector<SortKey> order(n);
    for (uint32_t id = 0; id < n; ++id) {
      order[id] = SortKey{BytePrefix(text(id)), id};
    }
    std::sort(order.begin(), order.end(),
              [this](const SortKey& a, const SortKey& b) {
                if (a.prefix != b.prefix) return a.prefix < b.prefix;
                return text(a.id) < text(b.id);
              });
    VER_CHECK(arena_.size() <= UINT32_MAX)
        << "keyword index holds " << arena_.size()
        << " bytes of key text; the snapshot's u32 key offsets cap it at "
           "4 GiB";
    VER_CHECK(postings_.size() <= UINT32_MAX)
        << "keyword index holds " << postings_.size()
        << " postings; the snapshot's u32 posting offsets cap it at 2^32";
    std::vector<uint32_t> rank(n);
    std::string& keys = blob->mut();
    std::vector<uint32_t>& key_ends = key_offsets->mut();
    std::vector<uint32_t>& posting_ends = posting_offsets->mut();
    keys.clear();
    keys.reserve(arena_.size());
    key_ends.assign(1, 0);
    posting_ends.assign(n + 1, 0);
    for (size_t k = 0; k < n; ++k) {
      rank[order[k].id] = static_cast<uint32_t>(k);
      keys.append(text(order[k].id));
      key_ends.push_back(static_cast<uint32_t>(keys.size()));
    }
    // Counting sort by key rank; it is stable, so each key keeps its
    // postings in posting order.
    for (const Posting& p : postings_) ++posting_ends[rank[p.text] + 1];
    for (size_t k = 0; k < n; ++k) posting_ends[k + 1] += posting_ends[k];
    std::vector<uint32_t> cursor(posting_ends.begin(), posting_ends.end() - 1);
    std::vector<uint64_t>& refs = columns->mut();
    refs.resize(postings_.size());
    for (const Posting& p : postings_) refs[cursor[rank[p.text]]++] = p.ref;
  }

 private:
  struct Posting {
    uint32_t text;
    uint64_t ref;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  std::string_view text(uint32_t id) const {
    size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }

  // Id of `text`, assigning the next one to a new text.
  uint32_t Intern(std::string_view s) {
    if ((ends_.size() + 1) * 2 > slots_.size()) Grow();
    const uint64_t h = std::hash<std::string_view>{}(s);
    size_t i = h & mask_;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      uint32_t id = slots_[i];
      if (hashes_[id] == h && text(id) == s) return id;
    }
    const uint32_t id = static_cast<uint32_t>(ends_.size());
    slots_[i] = id;
    hashes_.push_back(h);
    arena_.append(s);
    ends_.push_back(arena_.size());
    last_ref_.push_back(UINT64_MAX);
    return id;
  }

  // Doubles the slot array (load factor <= 1/2) and reinserts every id.
  void Grow() {
    slots_.assign(std::max<size_t>(64, slots_.size() * 2), kEmpty);
    mask_ = slots_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = id;
    }
  }

  std::string arena_;              // distinct texts, back to back
  std::vector<size_t> ends_;       // text id -> end offset in arena_
  std::vector<uint64_t> hashes_;   // text id -> hash
  std::vector<uint64_t> last_ref_;  // text id -> last ColumnRef posted
  std::vector<uint32_t> slots_;    // open addressing: text id or kEmpty
  size_t mask_ = 0;
  std::vector<Posting> postings_;  // (text id, ColumnRef) in posting order
};

}  // namespace

ptrdiff_t KeywordIndex::FlatPostings::find(std::string_view needle) const {
  size_t lo = 0, hi = num_keys();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (key(mid) < needle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < num_keys() && key(lo) == needle) return static_cast<ptrdiff_t>(lo);
  return -1;
}

void KeywordIndex::FlatPostings::SaveTo(SerdeWriter* w) const {
  blob.SaveTo(w);
  key_offsets.SaveTo(w);
  columns.SaveTo(w);
  posting_offsets.SaveTo(w);
}

Status KeywordIndex::FlatPostings::LoadFrom(SerdeReader* r,
                                            const PagerBinding* binding) {
  VER_RETURN_IF_ERROR(blob.LoadFrom(r, binding, "keyword key blob"));
  VER_RETURN_IF_ERROR(
      key_offsets.LoadFrom(r, binding, "keyword key offsets"));
  VER_RETURN_IF_ERROR(columns.LoadFrom(r, binding, "keyword postings"));
  VER_RETURN_IF_ERROR(
      posting_offsets.LoadFrom(r, binding, "keyword posting offsets"));
  if (key_offsets.size() != posting_offsets.size()) {
    return Status::IOError("corrupt keyword index: inconsistent offsets");
  }
  // Offset sanity: monotonic and in bounds, so key()/posting slicing can
  // never read out of range even if a corrupt file slipped past the
  // checksum. Paged loads skip the scan (it would fault in both offset
  // arrays eagerly) — key()/posting_range() guard each slice instead.
  if (binding != nullptr && binding->pool != nullptr) return Status::OK();
  auto offsets_valid = [](const PagedView<uint32_t>& offsets, size_t end) {
    if (offsets.empty()) return end == 0;
    if (offsets.front() != 0 || offsets.back() != end) return false;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) return false;
    }
    return true;
  };
  if (!offsets_valid(key_offsets, blob.size()) ||
      !offsets_valid(posting_offsets, columns.size())) {
    return Status::IOError("corrupt keyword index: inconsistent offsets");
  }
  return Status::OK();
}

bool KeywordIndex::FlatColumnInRange(const ColumnRef& ref) const {
  return ref.table_id >= 0 &&
         static_cast<size_t>(ref.table_id) < table_num_columns_.size() &&
         ref.column_index >= 0 &&
         ref.column_index < table_num_columns_[ref.table_id];
}

void KeywordIndex::CaptureColumnCounts(const TableRepository& repo) {
  table_num_columns_.clear();
  table_num_columns_.reserve(static_cast<size_t>(repo.num_tables()));
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    table_num_columns_.push_back(repo.table(t).num_columns());
  }
}

void KeywordIndex::Build(const TableRepository& repo) {
  // Tables and columns are visited in ascending order, so every text's
  // postings arrive in ascending ColumnRef order. One scratch text buffer
  // serves the whole build.
  PostingsBuilder values, attrs;
  std::string scratch;
  PackedBitset code_seen;
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    const Table& table = repo.table(t);
    for (int c = 0; c < table.num_columns(); ++c) {
      ColumnRef ref{t, c};
      const Attribute& attr = table.schema().attribute(c);
      if (attr.has_name()) attrs.Post(ToLower(attr.name), ref);
      auto post_scratch = [&]() {
        ToLowerInPlace(&scratch);
        values.Post(scratch, ref);
      };
      const ColumnData& data = table.column_data(c);
      if (data.is_dict()) {
        // Dictionary columns dedupe on codes first: each distinct cell is
        // lowercased and posted once, without re-hashing repeated rows.
        code_seen.Resize(data.dict_size());
        for (int64_t r = 0; r < table.num_rows(); ++r) {
          if (data.is_null(r)) continue;
          uint32_t code = data.code(r);
          if (!code_seen.TestAndSet(code)) continue;
          scratch.clear();
          data.dict_entry(code).AppendTextTo(&scratch);
          post_scratch();
        }
        continue;
      }
      for (int64_t r = 0; r < table.num_rows(); ++r) {
        CellView v = data.cell(r);
        if (v.is_null()) continue;
        scratch.clear();
        v.AppendTextTo(&scratch);
        post_scratch();
      }
    }
  }
  flat_values_ = FlatPostings();
  flat_attrs_ = FlatPostings();
  values.Finish(&flat_values_.blob, &flat_values_.key_offsets,
                &flat_values_.columns, &flat_values_.posting_offsets);
  attrs.Finish(&flat_attrs_.blob, &flat_attrs_.key_offsets,
               &flat_attrs_.columns, &flat_attrs_.posting_offsets);
  CaptureColumnCounts(repo);
  RebuildVocabBuckets();
}

void KeywordIndex::RebuildVocabBuckets() {
  auto bucket = [](const FlatPostings& flat,
                   std::vector<std::vector<VocabEntry>>* buckets) {
    buckets->clear();
    for (size_t i = 0; i < flat.num_keys(); ++i) {
      std::string_view text = flat.key(i);
      if (buckets->size() <= text.size()) buckets->resize(text.size() + 1);
      (*buckets)[text.size()].push_back(VocabEntry{text, i});
    }
  };
  bucket(flat_values_, &vocab_by_length_);
  bucket(flat_attrs_, &attr_vocab_by_length_);
}

std::vector<KeywordHit> KeywordIndex::Search(const std::string& keyword,
                                             KeywordTarget target,
                                             int max_edits) const {
  std::string needle = ToLower(Trim(keyword));
  // Accumulate per-column hit counts, keeping attribute/value hits distinct.
  std::unordered_map<uint64_t, KeywordHit> hits;

  auto add_hit = [&hits](const ColumnRef& ref, bool attribute, bool exact) {
    uint64_t key = ref.Encode() * 2 + (attribute ? 1 : 0);
    auto it = hits.find(key);
    if (it == hits.end()) {
      hits.emplace(key, KeywordHit{ref, attribute, exact, 1});
    } else {
      it->second.match_count += 1;
      it->second.exact = it->second.exact || exact;
    }
  };

  // Query-time guard replacing the skipped paged validation scan: a
  // posting that addresses no column is dropped, never handed to the
  // pipeline (which dereferences hits against the repository).
  auto add_hits = [&](const FlatPostings& flat, size_t key, bool attribute,
                      bool exact) {
    auto [pb, pe] = flat.posting_range(key);
    for (uint32_t p = pb; p < pe; ++p) {
      ColumnRef ref = DecodeColumnRef(flat.columns[p]);
      if (FlatColumnInRange(ref)) add_hit(ref, attribute, exact);
    }
  };

  auto search_postings =
      [&](const FlatPostings& flat,
          const std::vector<std::vector<VocabEntry>>& buckets,
          bool attribute) {
        ptrdiff_t exact_key = flat.find(needle);
        if (exact_key >= 0) {
          add_hits(flat, static_cast<size_t>(exact_key), attribute,
                   /*exact=*/true);
        }
        if (max_edits <= 0) return;
        int lo = std::max<int>(0, static_cast<int>(needle.size()) - max_edits);
        int hi = static_cast<int>(needle.size()) + max_edits;
        for (int len = lo; len <= hi && len < static_cast<int>(buckets.size());
             ++len) {
          for (const VocabEntry& entry : buckets[len]) {
            if (entry.text == needle) continue;  // already handled exactly
            if (!WithinEditDistance(needle, entry.text, max_edits)) continue;
            add_hits(flat, entry.key, attribute, /*exact=*/false);
          }
        }
      };

  if (target == KeywordTarget::kValues || target == KeywordTarget::kAll) {
    search_postings(flat_values_, vocab_by_length_, /*attribute=*/false);
  }
  if (target == KeywordTarget::kAttributes || target == KeywordTarget::kAll) {
    search_postings(flat_attrs_, attr_vocab_by_length_, /*attribute=*/true);
  }

  std::vector<KeywordHit> out;
  out.reserve(hits.size());
  for (auto& [_, hit] : hits) out.push_back(hit);
  std::sort(out.begin(), out.end(), [](const KeywordHit& a,
                                       const KeywordHit& b) {
    if (a.column.table_id != b.column.table_id) {
      return a.column.table_id < b.column.table_id;
    }
    if (a.column.column_index != b.column.column_index) {
      return a.column.column_index < b.column.column_index;
    }
    return a.matched_attribute < b.matched_attribute;
  });
  return out;
}

void KeywordIndex::SaveTo(SerdeWriter* w) const {
  flat_values_.SaveTo(w);
  flat_attrs_.SaveTo(w);
}

Status KeywordIndex::LoadFrom(SerdeReader* r, const TableRepository& repo,
                              const PagerBinding* binding) {
  VER_RETURN_IF_ERROR(flat_values_.LoadFrom(r, binding));
  VER_RETURN_IF_ERROR(flat_attrs_.LoadFrom(r, binding));
  CaptureColumnCounts(repo);
  // Every posting must address a real column: hits flow straight into the
  // pipeline, which dereferences them against the repository. Paged loads
  // skip the scan (it would fault in every posting page); Search checks
  // each flat posting it reads instead.
  if (binding == nullptr || binding->pool == nullptr) {
    for (const FlatPostings* flat : {&flat_values_, &flat_attrs_}) {
      for (uint64_t encoded : flat->columns) {
        ColumnRef ref = DecodeColumnRef(encoded);
        if (!FlatColumnInRange(ref)) {
          return Status::IOError(
              "corrupt keyword index: posting addresses nonexistent column " +
              ref.ToString());
        }
      }
    }
  }
  RebuildVocabBuckets();
  return Status::OK();
}

}  // namespace ver
