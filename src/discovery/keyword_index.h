// Keyword retrieval index: SEARCH-KEYWORD(target, fuzzy) of the paper's
// Appendix A. Finds columns whose attribute name or cell values contain an
// input string, exactly or within a Levenshtein distance.
//
// Postings live in one immutable flat store per target (sorted key blob +
// offset arrays) — the snapshot's layout. Build() writes it, SaveTo()
// writes it out unchanged, and LoadFrom() adopts it in a handful of
// memcpys (or borrows it from the mmapped file under paging), so built,
// loaded and paged indexes run the same lookup code.

#ifndef VER_DISCOVERY_KEYWORD_INDEX_H_
#define VER_DISCOVERY_KEYWORD_INDEX_H_

#include <string>
#include <string_view>
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
  /// Indexes every column of the repository. Cell texts are lowercased;
  /// numeric values are indexed by their canonical text. Keys come out in
  /// ascending byte order and each key's postings in ascending ColumnRef
  /// order, which is exactly the layout SaveTo writes.
  void Build(const TableRepository& repo);

  /// Columns matching `keyword`. `max_edits` = 0 means exact match only;
  /// otherwise the vocabulary is scanned with a banded edit-distance check.
  std::vector<KeywordHit> Search(const std::string& keyword,
                                 KeywordTarget target,
                                 int max_edits = 0) const;

  /// Distinct indexed cell texts.
  int64_t vocabulary_size() const {
    return static_cast<int64_t>(flat_values_.num_keys());
  }

  /// Snapshot serialization: SaveTo writes the flat stores as they are
  /// (deterministic bytes for a given repository); LoadFrom adopts them
  /// with no per-key work beyond bounds validation — offsets and every
  /// posting's ColumnRef are checked against `repo`, so a corrupt file
  /// cannot smuggle in out-of-range column addresses.
  ///
  /// With a pager `binding` the flat stores are adopted as borrowed mmap
  /// extents and the O(keys)/O(postings) validation scans are skipped
  /// (they would fault in the whole store); the accessors below instead
  /// bounds-guard each slice they take, so a corrupt offset yields an
  /// empty result, never an out-of-range read, and Search drops any flat
  /// posting that addresses no column of `repo`.
  void SaveTo(SerdeWriter* w) const;
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
  /// Storage is PagedViews: owned after Build() or a resident load,
  /// borrowed mmap extents under a paged one.
  struct FlatPostings {
    PagedView<char> blob;                  // key bytes, concatenated
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

  /// One vocabulary word and the index of its key in the flat store.
  struct VocabEntry {
    std::string_view text;
    size_t key;
  };

  void CaptureColumnCounts(const TableRepository& repo);
  void RebuildVocabBuckets();
  /// True when `ref` addresses a column of the repository the index was
  /// built or loaded over.
  bool FlatColumnInRange(const ColumnRef& ref) const;

  // Lowercased cell text / attribute name -> columns containing it.
  FlatPostings flat_values_;
  FlatPostings flat_attrs_;
  // Column counts per table, captured at Build/LoadFrom: postings are
  // range-checked against them (at load when resident, per posting in
  // Search) without touching the repository.
  std::vector<int32_t> table_num_columns_;
  // Vocabulary bucketed by length for banded fuzzy scans.
  std::vector<std::vector<VocabEntry>> vocab_by_length_;
  std::vector<std::vector<VocabEntry>> attr_vocab_by_length_;
};

}  // namespace ver

#endif  // VER_DISCOVERY_KEYWORD_INDEX_H_
