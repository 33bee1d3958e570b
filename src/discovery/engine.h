// DiscoveryEngine: the facade over all offline indices (the paper's
// DISCOVERY ENGINE AND INDEX CREATION component). Exposes the three
// functions Ver consumes (Appendix A): SEARCH-KEYWORD, NEIGHBORS and
// GENERATE-JOIN-GRAPHS, plus profile access.
//
// One engine holds one set of indices over the whole repository: column
// profiles, a keyword index, a similarity index and a join-path index.
// It persists as one snapshot file in one format (util/serde.h).

#ifndef VER_DISCOVERY_ENGINE_H_
#define VER_DISCOVERY_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "discovery/join_path_index.h"
#include "discovery/keyword_index.h"
#include "discovery/profile.h"
#include "discovery/similarity_index.h"
#include "pager/pager.h"
#include "storage/repository.h"
#include "util/result.h"
#include "util/serde.h"

namespace ver {

/// Knobs for offline index construction and the Appendix A discovery
/// functions. Each nested struct documents its own knobs.
struct DiscoveryOptions {
  /// Column profiling: sketch width, seed, exact-set cutoff.
  ProfilerOptions profiler;
  /// NEIGHBORS index: LSH bands, posting caps, distinct-value floor.
  SimilarityOptions similarity;
  /// GENERATE-JOIN-GRAPHS index: join-edge threshold and graph caps.
  JoinPathOptions join_paths;
  /// Jaccard threshold for content-similarity clustering during
  /// COLUMN-SELECTION (Algorithm 4 line 5's similarity edges). Unitless,
  /// in [0, 1]; default 0.5.
  double similarity_cluster_threshold = 0.5;
  /// Levenshtein budget for fuzzy SEARCH-KEYWORD (Appendix A's
  /// fuzzy=true). Units: edits; default 2; 0 disables fuzzy matching.
  int fuzzy_max_edits = 2;
  /// Worker threads for offline index construction (profiling, LSH banding,
  /// join-path candidate scoring); queries never use them. Units: threads;
  /// default 1 = serial; 0 = all hardware threads. No paper counterpart
  /// (the paper builds indices with Aurum). Output is bit-identical to
  /// serial for any value.
  int parallelism = 1;
};

/// Offline discovery index over one repository.
///
/// Build once (or Load a snapshot), query many times. The engine borrows
/// the repository; the repository must outlive the engine. Indices are
/// immutable once built: a grown repository gets a new engine, built
/// offline and swapped in (VerServer::SwapSnapshot).
///
/// Thread-safety contract (audited for the serving layer): Build() and
/// Load() construct the engine and hand it out only when done. Every
/// method of a constructed engine is const — SearchKeyword, Neighbors,
/// SimilarColumns, GenerateJoinGraphs, profile access and the index
/// accessors — and only reads state built beforehand; there are no
/// lazily-populated caches, memoization or counters on the read path.
/// Concurrent calls are therefore data-race-free and return results
/// identical to serial execution.
class DiscoveryEngine {
 public:
  /// Profiles all columns and constructs all indices.
  static std::unique_ptr<DiscoveryEngine> Build(
      const TableRepository& repo,
      const DiscoveryOptions& options = DiscoveryOptions());

  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// Persists the engine — a fingerprint of the repository's table names,
  /// row counts and schemas, options, column profiles (with sketches), the
  /// keyword, similarity and join-path indices, and the repository's
  /// tables in columnar form — as one kSnapshotFormatVersion snapshot file
  /// (see util/serde.h and docs/ARCHITECTURE.md for the layout). The write
  /// is atomic (temp + rename).
  Status Save(const std::string& path) const;

  /// Restores an engine from a snapshot written by Save(). `repo` must be
  /// the repository the snapshot was built over (checked against the
  /// stored fingerprint) and must outlive the engine. A loaded engine holds
  /// the same index stores as the freshly built engine it was saved from,
  /// so it answers every query bit-identically and saves to the same
  /// bytes. On any corruption (bad magic, a format version other than
  /// kSnapshotFormatVersion, truncation, checksum mismatch, an index whose
  /// layout contradicts the profiles or options) returns a descriptive
  /// error and constructs nothing.
  static Result<std::unique_ptr<DiscoveryEngine>> Load(
      const TableRepository& repo, const std::string& path);

  /// Load() with an explicit paging choice. With paging enabled the
  /// snapshot is mmapped and the index posting stores are borrowed from
  /// the map under a buffer-pool budget instead of being copied out;
  /// queries answer bit-identically, cold start touches O(pages read)
  /// instead of O(file), and checksum verification is skipped (the
  /// paged trust model: framing validated at load, index content
  /// bounds-guarded per slice at query time). When `repo` was itself
  /// paged from the same path, the engine shares the repository's runtime
  /// (one map, one space, one budget). On a platform without mmap the load
  /// silently falls back to the resident path.
  static Result<std::unique_ptr<DiscoveryEngine>> Load(
      const TableRepository& repo, const std::string& path,
      const PagingOptions& paging);

  /// Reconstructs the repository a snapshot was built over from the
  /// snapshot's columnar table section: every column's dictionary, codes
  /// and null bitmap memcpy-load, so a server cold-starts without
  /// re-parsing a single CSV. The result passes the snapshot's own
  /// fingerprint check, i.e. Load(LoadRepository(path), path) answers
  /// queries bit-identically to the engine that was saved.
  static Result<TableRepository> LoadRepository(const std::string& path);

  /// LoadRepository() with an explicit paging choice: column payloads
  /// (codes, null bitmaps, dictionary arenas) stay in the mmapped file
  /// and page in on demand under the budget, unvalidated until
  /// TableRepository::CheckTable checks each table on first use. The
  /// returned repository holds the runtime (repo.pager()); pass the same
  /// path to Load() to share it. Falls back to the resident path on
  /// hosts that cannot page.
  static Result<TableRepository> LoadRepository(const std::string& path,
                                                const PagingOptions& paging);

  const TableRepository& repo() const { return *repo_; }
  const DiscoveryOptions& options() const { return options_; }

  /// SEARCH-KEYWORD(target, fuzzy): columns containing `keyword`, sorted
  /// by (table, column, matched-attribute).
  std::vector<KeywordHit> SearchKeyword(const std::string& keyword,
                                        KeywordTarget target,
                                        bool fuzzy = false) const;

  /// NEIGHBORS(threshold): columns whose containment with `column` is at
  /// least `threshold` (inclusion-dependency neighbors), sorted by
  /// (score desc, profile index asc).
  std::vector<ColumnRef> Neighbors(const ColumnRef& column,
                                   double threshold) const;

  /// Content-similar columns (Jaccard), used for candidate clustering.
  std::vector<ColumnRef> SimilarColumns(const ColumnRef& column,
                                        double jaccard_threshold) const;

  /// GENERATE-JOIN-GRAPHS(tables, rho).
  std::vector<JoinGraph> GenerateJoinGraphs(const std::vector<int32_t>& tables,
                                            int max_hops) const;

  const ColumnProfile& profile(const ColumnRef& ref) const {
    return profiles_[static_cast<size_t>(profile_index_.at(ref.Encode()))];
  }
  const std::vector<ColumnProfile>& profiles() const { return profiles_; }
  const JoinPathIndex& join_path_index() const { return join_paths_; }
  const KeywordIndex& keyword_index() const { return keywords_; }
  const SimilarityIndex& similarity_index() const { return similarity_; }

  /// Table I statistic: total joinable column pairs discovered offline.
  int64_t num_joinable_column_pairs() const {
    return join_paths_.num_joinable_column_pairs();
  }

  /// The pager runtime this engine's indices borrow from (null when
  /// loaded resident). Shared with the repository when both were paged
  /// from the same snapshot.
  const std::shared_ptr<PagerRuntime>& pager() const { return pager_; }
  bool paged() const { return pager_ != nullptr; }

 private:
  DiscoveryEngine() = default;

  const TableRepository* repo_ = nullptr;
  DiscoveryOptions options_;
  /// Profiles in build order (table 0..N-1, columns in schema order). The
  /// similarity and join-path indices point at this vector, which is why
  /// the engine is neither copyable nor movable.
  std::vector<ColumnProfile> profiles_;
  std::unordered_map<uint64_t, int> profile_index_;  // ColumnRef -> index
  KeywordIndex keywords_;
  SimilarityIndex similarity_;
  JoinPathIndex join_paths_;
  std::shared_ptr<PagerRuntime> pager_;
};

}  // namespace ver

#endif  // VER_DISCOVERY_ENGINE_H_
