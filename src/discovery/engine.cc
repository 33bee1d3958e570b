#include "discovery/engine.h"

#include <memory>

#include "util/thread_pool.h"

namespace ver {

std::unique_ptr<DiscoveryEngine> DiscoveryEngine::Build(
    const TableRepository& repo, const DiscoveryOptions& options) {
  std::unique_ptr<DiscoveryEngine> engine(new DiscoveryEngine());
  engine->repo_ = &repo;
  engine->options_ = options;
  int workers = ResolveParallelism(options.parallelism);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  engine->profiles_ = ProfileRepository(repo, options.profiler, pool.get());
  engine->profile_index_.reserve(engine->profiles_.size());
  for (size_t i = 0; i < engine->profiles_.size(); ++i) {
    engine->profile_index_.emplace(engine->profiles_[i].ref.Encode(),
                                   static_cast<int>(i));
  }
  engine->keywords_.Build(repo);
  engine->similarity_.Build(&engine->profiles_, options.similarity,
                            pool.get());
  engine->join_paths_.Build(repo, &engine->profiles_, engine->similarity_,
                            options.join_paths, pool.get());
  return engine;
}

namespace {

// Section ids of the snapshot file, written in this order. Changing any
// section's payload, or adding or removing a section, requires a
// kSnapshotFormatVersion bump.
constexpr uint32_t kSectionRepoFingerprint = 1;
constexpr uint32_t kSectionOptions = 2;
constexpr uint32_t kSectionProfiles = 3;
constexpr uint32_t kSectionKeywordIndex = 4;
constexpr uint32_t kSectionSimilarityIndex = 5;
constexpr uint32_t kSectionJoinPathIndex = 6;
// The repository's tables in columnar form (per column: null bitmap, typed
// payload or dictionary + codes + arena — see ColumnData::SaveTo). Load()
// never needs it (the caller supplies the repository); LoadRepository()
// reconstructs a repository from it so a server can cold-start without
// re-parsing CSVs.
constexpr uint32_t kSectionRepoTables = 7;

void SaveOptions(const DiscoveryOptions& o, SerdeWriter* w) {
  w->WriteI32(o.profiler.minhash_permutations);
  w->WriteU64(o.profiler.seed);
  w->WriteI64(o.profiler.exact_set_max);
  w->WriteI32(o.similarity.lsh_bands);
  w->WriteI64(o.similarity.min_distinct);
  w->WriteU64(o.similarity.max_posting_length);
  w->WriteDouble(o.join_paths.containment_threshold);
  w->WriteI64(o.join_paths.min_distinct);
  w->WriteI32(o.join_paths.max_graphs_per_path);
  w->WriteI32(o.join_paths.max_total_graphs);
  w->WriteDouble(o.similarity_cluster_threshold);
  w->WriteI32(o.fuzzy_max_edits);
  w->WriteI32(o.parallelism);
}

Status LoadOptions(SerdeReader* r, DiscoveryOptions* o) {
  VER_RETURN_IF_ERROR(r->ReadI32(&o->profiler.minhash_permutations));
  VER_RETURN_IF_ERROR(r->ReadU64(&o->profiler.seed));
  VER_RETURN_IF_ERROR(r->ReadI64(&o->profiler.exact_set_max));
  VER_RETURN_IF_ERROR(r->ReadI32(&o->similarity.lsh_bands));
  VER_RETURN_IF_ERROR(r->ReadI64(&o->similarity.min_distinct));
  uint64_t max_posting;
  VER_RETURN_IF_ERROR(r->ReadU64(&max_posting));
  o->similarity.max_posting_length = static_cast<size_t>(max_posting);
  VER_RETURN_IF_ERROR(r->ReadDouble(&o->join_paths.containment_threshold));
  VER_RETURN_IF_ERROR(r->ReadI64(&o->join_paths.min_distinct));
  VER_RETURN_IF_ERROR(r->ReadI32(&o->join_paths.max_graphs_per_path));
  VER_RETURN_IF_ERROR(r->ReadI32(&o->join_paths.max_total_graphs));
  VER_RETURN_IF_ERROR(r->ReadDouble(&o->similarity_cluster_threshold));
  VER_RETURN_IF_ERROR(r->ReadI32(&o->fuzzy_max_edits));
  VER_RETURN_IF_ERROR(r->ReadI32(&o->parallelism));
  return Status::OK();
}

void SaveRepoFingerprint(const TableRepository& repo, SerdeWriter* w) {
  w->WriteI32(repo.num_tables());
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    const Table& table = repo.table(t);
    w->WriteString(table.name());
    w->WriteI64(table.num_rows());
    table.schema().SaveTo(w);
  }
}

// Compares the stored fingerprint against the live repository; a snapshot
// only loads over the exact table set it was built from.
Status CheckRepoFingerprint(SerdeReader* r, const TableRepository& repo) {
  int32_t num_tables;
  VER_RETURN_IF_ERROR(r->ReadI32(&num_tables));
  if (num_tables != repo.num_tables()) {
    return Status::InvalidArgument(
        "snapshot was built over " + std::to_string(num_tables) +
        " tables but the repository has " + std::to_string(repo.num_tables()));
  }
  for (int32_t t = 0; t < num_tables; ++t) {
    std::string name;
    int64_t num_rows;
    Schema schema;
    VER_RETURN_IF_ERROR(r->ReadString(&name));
    VER_RETURN_IF_ERROR(r->ReadI64(&num_rows));
    VER_RETURN_IF_ERROR(schema.LoadFrom(r));
    const Table& table = repo.table(t);
    if (table.name() != name || table.num_rows() != num_rows ||
        table.schema().num_attributes() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "snapshot table " + std::to_string(t) + " (" + name + ", " +
          std::to_string(num_rows) + " rows, " +
          std::to_string(schema.num_attributes()) +
          " columns) does not match repository table " + table.name());
    }
    for (int c = 0; c < schema.num_attributes(); ++c) {
      if (schema.attribute(c).name != table.schema().attribute(c).name) {
        return Status::InvalidArgument(
            "snapshot table " + name + " column " + std::to_string(c) +
            " is named '" + schema.attribute(c).name +
            "' but the repository has '" + table.schema().attribute(c).name +
            "'");
      }
      // Type drift means the column's *content* changed (types are
      // inferred from data), so the stored sketches no longer describe it.
      if (schema.attribute(c).type != table.schema().attribute(c).type) {
        return Status::InvalidArgument(
            "snapshot table " + name + " column " + std::to_string(c) +
            " was " + ValueTypeToString(schema.attribute(c).type) +
            " but the repository has " +
            ValueTypeToString(table.schema().attribute(c).type) +
            " — re-run build-index");
      }
    }
  }
  return Status::OK();
}

// The bytes behind one snapshot load: section payloads backed either by
// owned buffers (the checksum-verified resident read) or by a pager
// runtime's mmapped file (framing parsed, content paged in on demand).
struct SnapshotSource {
  std::string path;
  std::vector<SnapshotSection> owned;     // resident reads only
  std::shared_ptr<PagerRuntime> runtime;  // paged opens only

  struct View {
    uint32_t id;
    std::string_view payload;
  };
  std::vector<View> views;

  /// Whether LoadFrom calls borrow the section bytes (a paged open)
  /// instead of copying them.
  bool borrow() const { return runtime != nullptr; }

  /// A reader over the one section with `id`; errors on duplicates or
  /// absence.
  Result<SerdeReader> Section(uint32_t id, const char* name) const {
    const View* found = nullptr;
    for (const View& v : views) {
      if (v.id != id) continue;
      if (found != nullptr) {
        return Status::IOError("snapshot " + path + " has duplicate " +
                               std::string(name) + " sections");
      }
      found = &v;
    }
    if (found == nullptr) {
      return Status::IOError("snapshot " + path + " is missing the " +
                             std::string(name) + " section");
    }
    return SerdeReader(found->payload, std::string(name) + " section of " +
                                           path);
  }
};

// Opens `path` paged when requested (reusing `reuse` if it already maps
// this file), resident otherwise. A host that cannot page (NotImplemented)
// falls back to the resident read; real errors propagate.
Status OpenSnapshotSource(const std::string& path, const PagingOptions& paging,
                          const std::shared_ptr<PagerRuntime>& reuse,
                          SnapshotSource* out) {
  out->path = path;
  if (paging.enabled) {
    std::shared_ptr<PagerRuntime> runtime;
    if (reuse != nullptr && reuse->path() == path) {
      runtime = reuse;
    } else {
      Result<std::shared_ptr<PagerRuntime>> opened =
          PagerRuntime::Open(path, paging);
      if (opened.ok()) {
        runtime = std::move(opened).value();
      } else if (!opened.status().IsNotImplemented()) {
        return opened.status();
      }
    }
    if (runtime != nullptr) {
      out->runtime = runtime;
      out->views.reserve(runtime->map().sections().size());
      for (const SnapshotSectionEntry& e : runtime->map().sections()) {
        out->views.push_back({e.id, runtime->map().section_payload(e)});
      }
      return Status::OK();
    }
  }
  VER_RETURN_IF_ERROR(ReadSnapshotFile(path, &out->owned));
  out->views.reserve(out->owned.size());
  for (const SnapshotSection& s : out->owned) {
    out->views.push_back({s.id, s.payload});
  }
  return Status::OK();
}

}  // namespace

Status DiscoveryEngine::Save(const std::string& path) const {
  std::vector<SnapshotSection> sections;
  {
    SerdeWriter w;
    SaveRepoFingerprint(*repo_, &w);
    sections.push_back({kSectionRepoFingerprint, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    SaveOptions(options_, &w);
    sections.push_back({kSectionOptions, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    w.WriteU64(profiles_.size());
    for (const ColumnProfile& p : profiles_) p.SaveTo(&w);
    sections.push_back({kSectionProfiles, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    keywords_.SaveTo(&w);
    sections.push_back({kSectionKeywordIndex, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    similarity_.SaveTo(&w);
    sections.push_back({kSectionSimilarityIndex, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    join_paths_.SaveTo(&w);
    sections.push_back({kSectionJoinPathIndex, w.TakeBuffer()});
  }
  {
    SerdeWriter w;
    w.WriteI32(repo_->num_tables());
    for (int32_t t = 0; t < repo_->num_tables(); ++t) {
      repo_->table(t).SaveTo(&w);
    }
    sections.push_back({kSectionRepoTables, w.TakeBuffer()});
  }
  return WriteSnapshotFile(path, sections);
}

Result<TableRepository> DiscoveryEngine::LoadRepository(
    const std::string& path) {
  return LoadRepository(path, PagingOptions{});
}

Result<TableRepository> DiscoveryEngine::LoadRepository(
    const std::string& path, const PagingOptions& paging) {
  SnapshotSource src;
  VER_RETURN_IF_ERROR(OpenSnapshotSource(path, paging, nullptr, &src));
  VER_ASSIGN_OR_RETURN(SerdeReader r,
                       src.Section(kSectionRepoTables, "repo tables"));
  int32_t num_tables;
  VER_RETURN_IF_ERROR(r.ReadI32(&num_tables));
  if (num_tables < 0) {
    return Status::IOError("snapshot " + path +
                           " declares a negative table count");
  }
  // Paged loads record where each table's record lies in the map, which
  // is what a query pins.
  const uint64_t section_offset =
      src.runtime != nullptr
          ? src.runtime->map().FindSection(kSectionRepoTables)->offset
          : 0;
  std::vector<TableSpan> spans;
  TableRepository repo;
  for (int32_t t = 0; t < num_tables; ++t) {
    const size_t start = r.pos();
    Table table;
    VER_RETURN_IF_ERROR(table.LoadFrom(&r, src.borrow()));
    if (src.runtime != nullptr) {
      spans.push_back({section_offset + start, r.pos() - start});
    }
    VER_ASSIGN_OR_RETURN(int32_t id, repo.AddTable(std::move(table)));
    (void)id;
  }
  VER_RETURN_IF_ERROR(r.ExpectEnd());
  // The repository keeps the runtime alive for as long as any table
  // borrows from the map.
  repo.set_pager(src.runtime, spans);
  return repo;
}

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::Load(
    const TableRepository& repo, const std::string& path) {
  // A repository paged from this very snapshot implies the caller wants
  // the engine paged too (one map, one budget); otherwise resident.
  PagingOptions paging;
  paging.enabled =
      repo.pager() != nullptr && repo.pager()->path() == path;
  return Load(repo, path, paging);
}

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::Load(
    const TableRepository& repo, const std::string& path,
    const PagingOptions& paging) {
  SnapshotSource src;
  VER_RETURN_IF_ERROR(OpenSnapshotSource(path, paging, repo.pager(), &src));
  {
    VER_ASSIGN_OR_RETURN(SerdeReader r,
                         src.Section(kSectionRepoFingerprint, "fingerprint"));
    VER_RETURN_IF_ERROR(CheckRepoFingerprint(&r, repo));
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }

  std::unique_ptr<DiscoveryEngine> engine(new DiscoveryEngine());
  engine->repo_ = &repo;
  {
    VER_ASSIGN_OR_RETURN(SerdeReader r,
                         src.Section(kSectionOptions, "options"));
    VER_RETURN_IF_ERROR(LoadOptions(&r, &engine->options_));
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    VER_ASSIGN_OR_RETURN(SerdeReader r,
                         src.Section(kSectionProfiles, "profiles"));
    uint64_t count;
    VER_RETURN_IF_ERROR(r.ReadU64(&count));
    // A serialized profile is >= 57 bytes (ref + name length + stats +
    // sketch + hash-set length); 8 is a safe floor for the count guard.
    VER_RETURN_IF_ERROR(r.CheckCount(count, 8, "profile count"));
    engine->profiles_.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ColumnProfile p;
      VER_RETURN_IF_ERROR(p.LoadFrom(&r));
      engine->profiles_.push_back(std::move(p));
    }
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }
  engine->profile_index_.reserve(engine->profiles_.size());
  for (size_t i = 0; i < engine->profiles_.size(); ++i) {
    engine->profile_index_.emplace(engine->profiles_[i].ref.Encode(),
                                   static_cast<int>(i));
  }
  {
    VER_ASSIGN_OR_RETURN(SerdeReader r,
                         src.Section(kSectionKeywordIndex, "keyword index"));
    VER_RETURN_IF_ERROR(engine->keywords_.LoadFrom(&r, repo, src.borrow()));
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    VER_ASSIGN_OR_RETURN(
        SerdeReader r,
        src.Section(kSectionSimilarityIndex, "similarity index"));
    VER_RETURN_IF_ERROR(engine->similarity_.LoadFrom(
        &r, &engine->profiles_, engine->options_.similarity, src.borrow()));
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    VER_ASSIGN_OR_RETURN(
        SerdeReader r, src.Section(kSectionJoinPathIndex, "join path index"));
    VER_RETURN_IF_ERROR(engine->join_paths_.LoadFrom(
        &r, repo, engine->options_.join_paths, src.borrow()));
    VER_RETURN_IF_ERROR(r.ExpectEnd());
  }
  engine->pager_ = src.runtime;
  return engine;
}

std::vector<KeywordHit> DiscoveryEngine::SearchKeyword(
    const std::string& keyword, KeywordTarget target, bool fuzzy) const {
  return keywords_.Search(keyword, target,
                          fuzzy ? options_.fuzzy_max_edits : 0);
}

namespace {

std::vector<ColumnRef> NeighborRefs(const std::vector<ColumnProfile>& profiles,
                                    const std::vector<Neighbor>& neighbors) {
  std::vector<ColumnRef> out;
  out.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out.push_back(profiles[static_cast<size_t>(n.profile_index)].ref);
  }
  return out;
}

}  // namespace

std::vector<ColumnRef> DiscoveryEngine::Neighbors(const ColumnRef& column,
                                                  double threshold) const {
  auto it = profile_index_.find(column.Encode());
  if (it == profile_index_.end()) return {};
  return NeighborRefs(profiles_,
                      similarity_.ContainmentNeighbors(it->second, threshold));
}

std::vector<ColumnRef> DiscoveryEngine::SimilarColumns(
    const ColumnRef& column, double jaccard_threshold) const {
  auto it = profile_index_.find(column.Encode());
  if (it == profile_index_.end()) return {};
  return NeighborRefs(profiles_, similarity_.JaccardNeighbors(
                                     it->second, jaccard_threshold));
}

std::vector<JoinGraph> DiscoveryEngine::GenerateJoinGraphs(
    const std::vector<int32_t>& tables, int max_hops) const {
  return join_paths_.GenerateJoinGraphs(tables, max_hops);
}

}  // namespace ver
