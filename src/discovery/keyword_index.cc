#include "discovery/keyword_index.h"

#include <algorithm>

#include "util/bitset.h"
#include "util/levenshtein.h"
#include "util/string_util.h"

namespace ver {

namespace {

ColumnRef DecodeColumnRef(uint64_t encoded) {
  return ColumnRef{static_cast<int32_t>(encoded >> 32),
                   static_cast<int32_t>(encoded & 0xffffffffULL)};
}

// Sorted pointers to the hash-map keys (deterministic iteration order).
std::vector<const std::string*> SortedKeys(
    const std::unordered_map<std::string, std::vector<ColumnRef>>& postings) {
  std::vector<const std::string*> keys;
  keys.reserve(postings.size());
  for (const auto& [text, cols] : postings) {
    (void)cols;
    keys.push_back(&text);
  }
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  return keys;
}

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
  w->WriteString(blob.view());
  w->WriteU32Array(key_offsets.data(), key_offsets.size());
  w->WriteU64Array(columns.data(), columns.size());
  w->WriteU32Array(posting_offsets.data(), posting_offsets.size());
}

Status KeywordIndex::FlatPostings::LoadFrom(SerdeReader* r,
                                            const PagerBinding* binding) {
  {
    const char* raw = nullptr;
    uint64_t len = 0;
    VER_RETURN_IF_ERROR(r->ReadStringExtent(&raw, &len));
    blob.Adopt(binding, raw, len);
  }
  auto load_u32 = [&](PagedView<uint32_t>* out, const char* what) -> Status {
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(r->ReadArrayExtent(sizeof(uint32_t), what, &raw, &n));
    out->Adopt(binding, raw, n);
    return Status::OK();
  };
  VER_RETURN_IF_ERROR(load_u32(&key_offsets, "keyword key offsets"));
  {
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(
        r->ReadArrayExtent(sizeof(uint64_t), "keyword postings", &raw, &n));
    columns.Adopt(binding, raw, n);
  }
  VER_RETURN_IF_ERROR(load_u32(&posting_offsets, "keyword posting offsets"));
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

int64_t KeywordIndex::vocabulary_size() const {
  int64_t size = static_cast<int64_t>(flat_values_.num_keys());
  for (const auto& [text, cols] : value_postings_) {
    (void)cols;
    // Words already in the flat base (re-indexed after a snapshot load)
    // count once.
    if (flat_values_.num_keys() == 0 || flat_values_.find(text) < 0) ++size;
  }
  return size;
}

void KeywordIndex::Build(const TableRepository& repo) {
  value_postings_.clear();
  attr_postings_.clear();
  flat_values_ = FlatPostings();
  flat_attrs_ = FlatPostings();
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    IndexTable(repo, t);
  }
  RebuildVocabBuckets();
}

void KeywordIndex::AddTable(const TableRepository& repo, int32_t table_id) {
  IndexTable(repo, table_id);
  // Key pointers in unordered_map are stable across inserts, but the fuzzy
  // buckets only know keys present at bucketing time; rebucket.
  RebuildVocabBuckets();
}

void KeywordIndex::IndexTable(const TableRepository& repo, int32_t t) {
  const Table& table = repo.table(t);
  // One scratch text buffer for the whole table (the old loop built a
  // std::string per distinct cell into an unordered_set<std::string>), and
  // posting dedup that needs no set at all: columns index one at a time,
  // so a text already posted by *this* column has this column's ref at the
  // back of its posting list — older refs can never follow it.
  std::string scratch;
  PackedBitset code_seen;
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnRef ref{t, c};
    const Attribute& attr = table.schema().attribute(c);
    if (attr.has_name()) {
      attr_postings_[ToLower(attr.name)].push_back(ref);
    }
    auto post_scratch = [&]() {
      ToLowerInPlace(&scratch);
      std::vector<ColumnRef>& cols = value_postings_[scratch];
      if (cols.empty() || cols.back().table_id != ref.table_id ||
          cols.back().column_index != ref.column_index) {
        cols.push_back(ref);
      }
    };
    const ColumnData& data = table.column_data(c);
    if (data.is_dict()) {
      // Dictionary columns dedupe on codes first: each distinct cell is
      // lowercased and posted once, in first-occurrence row order (same
      // postings as the per-row loop, minus the re-hashing).
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

void KeywordIndex::RebuildVocabBuckets() {
  auto bucket = [](const std::unordered_map<std::string,
                                            std::vector<ColumnRef>>& postings,
                   const FlatPostings& flat,
                   std::vector<std::vector<VocabEntry>>* buckets) {
    buckets->clear();
    auto add = [buckets](VocabEntry entry) {
      size_t len = entry.text.size();
      if (buckets->size() <= len) buckets->resize(len + 1);
      (*buckets)[len].push_back(entry);
    };
    for (size_t i = 0; i < flat.num_keys(); ++i) {
      add(VocabEntry{flat.key(i), nullptr, static_cast<ptrdiff_t>(i)});
    }
    for (const auto& [text, cols] : postings) {
      add(VocabEntry{text, &cols, -1});
    }
  };
  bucket(value_postings_, flat_values_, &vocab_by_length_);
  bucket(attr_postings_, flat_attrs_, &attr_vocab_by_length_);
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

  // Query-time guard replacing the skipped paged validation scan: a flat
  // posting that addresses no column is dropped, never handed to the
  // pipeline (which dereferences hits against the repository).
  auto add_flat_hits = [&](const FlatPostings& flat, size_t key,
                           bool attribute, bool exact) {
    auto [pb, pe] = flat.posting_range(key);
    for (uint32_t p = pb; p < pe; ++p) {
      ColumnRef ref = DecodeColumnRef(flat.columns[p]);
      if (FlatColumnInRange(ref)) add_hit(ref, attribute, exact);
    }
  };

  auto search_postings =
      [&](const std::unordered_map<std::string, std::vector<ColumnRef>>&
              postings,
          const FlatPostings& flat,
          const std::vector<std::vector<VocabEntry>>& buckets,
          bool attribute) {
        // Exact lookups, in both stores (a key present in both — the flat
        // base plus tables indexed after a Load — contributes from each).
        auto it = postings.find(needle);
        if (it != postings.end()) {
          for (const ColumnRef& ref : it->second) {
            add_hit(ref, attribute, /*exact=*/true);
          }
        }
        ptrdiff_t fi = flat.find(needle);
        if (fi >= 0) {
          add_flat_hits(flat, static_cast<size_t>(fi), attribute,
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
            if (entry.map_postings != nullptr) {
              for (const ColumnRef& ref : *entry.map_postings) {
                add_hit(ref, attribute, /*exact=*/false);
              }
            } else {
              add_flat_hits(flat, static_cast<size_t>(entry.flat_index),
                            attribute, /*exact=*/false);
            }
          }
        }
      };

  if (target == KeywordTarget::kValues || target == KeywordTarget::kAll) {
    search_postings(value_postings_, flat_values_, vocab_by_length_,
                    /*attribute=*/false);
  }
  if (target == KeywordTarget::kAttributes || target == KeywordTarget::kAll) {
    search_postings(attr_postings_, flat_attrs_, attr_vocab_by_length_,
                    /*attribute=*/true);
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

// Merges the flat base and the sorted hash-map keys into one flat store.
// For a key present in both, flat postings come first — flat entries are
// older (lower) table ids, so the merged order equals a from-scratch
// build's insertion order.
Status KeywordIndex::SaveTo(SerdeWriter* w) const {
  auto save_merged =
      [w](const FlatPostings& flat,
          const std::unordered_map<std::string, std::vector<ColumnRef>>&
              postings) -> Status {
        std::vector<const std::string*> map_keys = SortedKeys(postings);
        FlatPostings out;
        out.key_offsets.mut().push_back(0);
        out.posting_offsets.mut().push_back(0);
        size_t fi = 0, mi = 0;
        auto emit_flat = [&](size_t i) {
          std::string_view key = flat.key(i);
          out.blob.mut().append(key.data(), key.size());
          auto [pb, pe] = flat.posting_range(i);
          for (uint32_t p = pb; p < pe; ++p) {
            out.columns.mut().push_back(flat.columns[p]);
          }
        };
        auto emit_map = [&](size_t i) {
          const std::string& key = *map_keys[i];
          out.blob.mut().append(key);
          for (const ColumnRef& ref : postings.at(key)) {
            out.columns.mut().push_back(ref.Encode());
          }
        };
        while (fi < flat.num_keys() || mi < map_keys.size()) {
          if (mi >= map_keys.size() ||
              (fi < flat.num_keys() && flat.key(fi) < *map_keys[mi])) {
            emit_flat(fi++);
          } else if (fi >= flat.num_keys() || *map_keys[mi] < flat.key(fi)) {
            emit_map(mi++);
          } else {  // same key in both stores: flat (older tables) first
            std::string_view key = flat.key(fi);
            out.blob.mut().append(key.data(), key.size());
            auto [pb, pe] = flat.posting_range(fi);
            for (uint32_t p = pb; p < pe; ++p) {
              out.columns.mut().push_back(flat.columns[p]);
            }
            for (const ColumnRef& ref : postings.at(*map_keys[mi])) {
              out.columns.mut().push_back(ref.Encode());
            }
            ++fi;
            ++mi;
          }
          if (out.blob.size() > UINT32_MAX || out.columns.size() > UINT32_MAX) {
            return Status::OutOfRange(
                "keyword index exceeds the snapshot format's u32 offset "
                "range; cannot save");
          }
          out.key_offsets.mut().push_back(
              static_cast<uint32_t>(out.blob.size()));
          out.posting_offsets.mut().push_back(
              static_cast<uint32_t>(out.columns.size()));
        }
        out.SaveTo(w);
        return Status::OK();
      };
  VER_RETURN_IF_ERROR(save_merged(flat_values_, value_postings_));
  return save_merged(flat_attrs_, attr_postings_);
}

Status KeywordIndex::LoadFrom(SerdeReader* r, const TableRepository& repo,
                              const PagerBinding* binding) {
  VER_RETURN_IF_ERROR(flat_values_.LoadFrom(r, binding));
  VER_RETURN_IF_ERROR(flat_attrs_.LoadFrom(r, binding));
  table_num_columns_.clear();
  table_num_columns_.reserve(static_cast<size_t>(repo.num_tables()));
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    table_num_columns_.push_back(repo.table(t).num_columns());
  }
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
  value_postings_.clear();
  attr_postings_.clear();
  RebuildVocabBuckets();
  return Status::OK();
}

}  // namespace ver
