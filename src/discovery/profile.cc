#include "discovery/profile.h"

#include <algorithm>

namespace ver {

namespace {

void ProfileTableInto(const TableRepository& repo, int32_t t,
                      const MinHasher& hasher, const ProfilerOptions& options,
                      std::vector<ColumnProfile>* out) {
  const Table& table = repo.table(t);
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnProfile p;
    p.ref = ColumnRef{t, c};
    p.attribute_name = table.schema().attribute(c).name;
    // One distinct pass: sorted and unique, it gives the distinct count,
    // the sketch input and the exact set.
    std::vector<uint64_t> hashes = DistinctValueHashes(table, c);
    p.stats = ComputeColumnStats(table, c, static_cast<int64_t>(hashes.size()));
    p.signature = hasher.Compute(hashes);
    if (static_cast<int64_t>(hashes.size()) <= options.exact_set_max) {
      p.distinct_hashes = std::move(hashes);
    }
    out->push_back(std::move(p));
  }
}

}  // namespace

void ColumnProfile::SaveTo(SerdeWriter* w) const {
  w->WriteI32(ref.table_id);
  w->WriteI32(ref.column_index);
  w->WriteString(attribute_name);
  stats.SaveTo(w);
  signature.SaveTo(w);
  w->WriteArray(distinct_hashes);
}

Status ColumnProfile::LoadFrom(SerdeReader* r) {
  VER_RETURN_IF_ERROR(r->ReadI32(&ref.table_id));
  VER_RETURN_IF_ERROR(r->ReadI32(&ref.column_index));
  VER_RETURN_IF_ERROR(r->ReadString(&attribute_name));
  VER_RETURN_IF_ERROR(stats.LoadFrom(r));
  VER_RETURN_IF_ERROR(signature.LoadFrom(r));
  return r->ReadVector(&distinct_hashes);
}

std::vector<ColumnProfile> ProfileRepository(const TableRepository& repo,
                                             const ProfilerOptions& options,
                                             ThreadPool* pool) {
  MinHasher hasher(options.minhash_permutations, options.seed);
  // One chunk per table (tables vary wildly in size, so finer chunks
  // balance better), concatenated in table order.
  size_t num_tables = static_cast<size_t>(repo.num_tables());
  std::vector<std::vector<ColumnProfile>> per_table(num_tables);
  ParallelFor(pool, num_tables, num_tables,
              [&](size_t, size_t begin, size_t end) {
                for (size_t t = begin; t < end; ++t) {
                  ProfileTableInto(repo, static_cast<int32_t>(t), hasher,
                                   options, &per_table[t]);
                }
              });
  std::vector<ColumnProfile> profiles;
  profiles.reserve(static_cast<size_t>(repo.TotalColumns()));
  for (std::vector<ColumnProfile>& chunk : per_table) {
    for (ColumnProfile& p : chunk) profiles.push_back(std::move(p));
  }
  return profiles;
}

namespace {

uint64_t SortedIntersectionSize(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

}  // namespace

std::pair<double, double> ProfileContainments(const ColumnProfile& a,
                                              const ColumnProfile& b) {
  if (a.has_exact_set() && b.has_exact_set()) {
    uint64_t shared =
        SortedIntersectionSize(a.distinct_hashes, b.distinct_hashes);
    const double inter = static_cast<double>(shared);
    const double na = static_cast<double>(a.distinct_hashes.size());
    const double nb = static_cast<double>(b.distinct_hashes.size());
    return {inter / na, inter / nb};
  }
  return {EstimateContainment(a.signature, b.signature),
          EstimateContainment(b.signature, a.signature)};
}

double ProfileContainment(const ColumnProfile& a, const ColumnProfile& b) {
  return ProfileContainments(a, b).first;
}

double ProfileJaccard(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.has_exact_set() && b.has_exact_set()) {
    if (a.distinct_hashes.empty() && b.distinct_hashes.empty()) return 1.0;
    uint64_t inter =
        SortedIntersectionSize(a.distinct_hashes, b.distinct_hashes);
    uint64_t uni =
        a.distinct_hashes.size() + b.distinct_hashes.size() - inter;
    return uni == 0 ? 0.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  }
  return EstimateJaccard(a.signature, b.signature);
}

}  // namespace ver
