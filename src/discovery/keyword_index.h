// Keyword retrieval index: SEARCH-KEYWORD(target, fuzzy) of the paper's
// Appendix A. Finds columns whose attribute name or cell values contain an
// input string, exactly or within a Levenshtein distance.
//
// Postings live in two stores that Search consults together:
//  - a mutable hash map, filled by Build()/AddTable() (fast incremental
//    inserts while indexing);
//  - an immutable flat store (sorted key blob + offset arrays), bulk-loaded
//    from a snapshot in a handful of memcpys — this is what makes
//    zero-rebuild cold starts fast, since rehashing tens of thousands of
//    string keys dominated snapshot loading otherwise.
// A column's postings are never split across stores for the same key
// growth step, and tables indexed after a Load land in the hash map, so
// the combined view is identical to a from-scratch build.

#ifndef VER_DISCOVERY_KEYWORD_INDEX_H_
#define VER_DISCOVERY_KEYWORD_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pager/paged_view.h"
#include "storage/repository.h"
#include "util/serde.h"

namespace ver {

/// What part of a table the keyword may match.
enum class KeywordTarget {
  kValues,      // cell contents
  kAttributes,  // attribute (header) names
  kAll,
};

struct KeywordHit {
  ColumnRef column;
  bool matched_attribute = false;  // else matched a value
  bool exact = true;               // else fuzzy
  /// For value hits: how many distinct cell texts of this column matched.
  int match_count = 1;
};

/// Inverted index over lowercased cell texts and attribute names.
class KeywordIndex {
 public:
  /// Indexes every column of the repository. Cell texts are trimmed and
  /// lowercased; numeric values are indexed by their canonical text.
  void Build(const TableRepository& repo);

  /// Incrementally indexes one table that was appended to the repository
  /// after Build() or LoadFrom() (online index maintenance).
  void AddTable(const TableRepository& repo, int32_t table_id);

  /// Columns matching `keyword`. `max_edits` = 0 means exact match only;
  /// otherwise the vocabulary is scanned with a banded edit-distance check.
  std::vector<KeywordHit> Search(const std::string& keyword,
                                 KeywordTarget target,
                                 int max_edits = 0) const;

  /// Distinct indexed cell texts across both stores.
  int64_t vocabulary_size() const;

  /// Snapshot serialization. Writes both stores merged into one sorted
  /// flat layout (deterministic bytes for a given logical index state);
  /// LoadFrom restores it as the immutable flat store with no per-key
  /// work beyond bounds validation — offsets and every posting's
  /// ColumnRef are checked against `repo`, so a corrupt file cannot
  /// smuggle in out-of-range column addresses. SaveTo fails (rather than
  /// silently wrapping the u32 offsets) if the flat layout exceeds 4 GiB
  /// of key text or 2^32 postings.
  ///
  /// With a pager `binding` the flat stores are adopted as borrowed mmap
  /// extents and the O(keys)/O(postings) validation scans are skipped
  /// (they would fault in the whole store); the accessors below instead
  /// bounds-guard each slice they take, so a corrupt offset yields an
  /// empty result, never an out-of-range read, and Search drops any flat
  /// posting that addresses no column of `repo`.
  Status SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, const TableRepository& repo,
                  const PagerBinding* binding = nullptr);

  /// Adds the flat stores' paged extents to `pin` (no-op when resident).
  void PinInto(PagePin* pin) const {
    flat_values_.PinInto(pin);
    flat_attrs_.PinInto(pin);
  }

 private:
  /// Immutable posting store: keys sorted ascending in one blob, postings
  /// concatenated in key order. find() is a binary search over key slices.
  /// Storage is PagedView/PagedBytes: owned after a resident load,
  /// borrowed mmap extents under a paged one.
  struct FlatPostings {
    PagedBytes blob;                       // key bytes, concatenated
    PagedView<uint32_t> key_offsets;       // num_keys + 1 entries
    PagedView<uint64_t> columns;           // ColumnRef::Encode, concatenated
    PagedView<uint32_t> posting_offsets;   // num_keys + 1 entries

    size_t num_keys() const {
      return key_offsets.empty() ? 0
                                 : static_cast<size_t>(key_offsets.size()) - 1;
    }
    /// Bounds-guarded key slice: empty view on a corrupt offset pair. The
    /// guard never touches blob bytes, so building vocabulary entries
    /// faults in only the offset array.
    std::string_view key(size_t i) const {
      uint64_t b = key_offsets[i], e = key_offsets[i + 1];
      if (b > e || e > blob.size()) return {};
      return blob.view().substr(static_cast<size_t>(b),
                                static_cast<size_t>(e - b));
    }
    /// Bounds-guarded posting slice [begin, end) into columns for key `i`;
    /// empty on a corrupt offset pair.
    std::pair<uint32_t, uint32_t> posting_range(size_t i) const {
      uint32_t b = posting_offsets[i], e = posting_offsets[i + 1];
      if (b > e || e > columns.size()) return {0, 0};
      return {b, e};
    }
    /// Index of `needle`, or -1.
    ptrdiff_t find(std::string_view needle) const;
    void SaveTo(SerdeWriter* w) const;
    /// Restores the store; resident loads validate the offset arrays
    /// (monotonic, in bounds), paged loads defer to the guarded accessors.
    Status LoadFrom(SerdeReader* r, const PagerBinding* binding);
    void PinInto(PagePin* pin) const {
      blob.PinInto(pin);
      key_offsets.PinInto(pin);
      columns.PinInto(pin);
      posting_offsets.PinInto(pin);
    }
  };

  /// One vocabulary word, resolvable to its postings in either store.
  struct VocabEntry {
    std::string_view text;
    const std::vector<ColumnRef>* map_postings;  // null when flat
    ptrdiff_t flat_index;                        // -1 when in the hash map
  };

  void IndexTable(const TableRepository& repo, int32_t table_id);
  void RebuildVocabBuckets();
  /// True when `ref` addresses a column of the repository LoadFrom saw.
  bool FlatColumnInRange(const ColumnRef& ref) const;

  // Mutable store: lowercased text -> columns containing it (deduped).
  std::unordered_map<std::string, std::vector<ColumnRef>> value_postings_;
  std::unordered_map<std::string, std::vector<ColumnRef>> attr_postings_;
  // Immutable store (snapshot-loaded base).
  FlatPostings flat_values_;
  FlatPostings flat_attrs_;
  // Column counts per table, captured at LoadFrom: flat postings are
  // range-checked against them (at load when resident, per posting in
  // Search when paged) without touching the repository.
  std::vector<int32_t> table_num_columns_;
  // Vocabulary of both stores bucketed by length for banded fuzzy scans.
  std::vector<std::vector<VocabEntry>> vocab_by_length_;
  std::vector<std::vector<VocabEntry>> attr_vocab_by_length_;
};

}  // namespace ver

#endif  // VER_DISCOVERY_KEYWORD_INDEX_H_
