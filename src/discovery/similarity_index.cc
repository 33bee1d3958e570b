#include "discovery/similarity_index.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/bitset.h"
#include "util/check.h"
#include "util/hash.h"

namespace ver {

namespace {

// The LSH geometry a profile set and options imply: {bands, rows per
// band}. Build() uses it, and LoadFrom() checks a snapshot against it.
std::pair<int, int> BandGeometry(const std::vector<ColumnProfile>& profiles,
                                 const SimilarityOptions& options) {
  int permutations =
      profiles.empty() ? 128 : profiles.front().signature.num_permutations();
  int bands = std::max(1, std::min(options.lsh_bands, permutations));
  return {bands, std::max(1, permutations / bands)};
}

}  // namespace

ptrdiff_t SimilarityIndex::FlatBuckets::find(uint64_t key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return it - keys.begin();
}

void SimilarityIndex::FlatBuckets::SaveTo(SerdeWriter* w) const {
  keys.SaveTo(w);
  offsets.SaveTo(w);
  postings.SaveTo(w);
}

Status SimilarityIndex::FlatBuckets::LoadFrom(SerdeReader* r, bool borrow) {
  VER_RETURN_IF_ERROR(keys.LoadFrom(r, borrow, "bucket keys"));
  VER_RETURN_IF_ERROR(offsets.LoadFrom(r, borrow, "bucket offsets"));
  VER_RETURN_IF_ERROR(postings.LoadFrom(r, borrow, "bucket postings"));
  // An empty store is one offset, 0: what Assign writes for no keys.
  bool valid = offsets.size() == keys.size() + 1 && offsets.front() == 0 &&
               offsets.back() == postings.size();
  if (!valid) {
    return Status::IOError("corrupt similarity index: inconsistent offsets");
  }
  // Monotonicity scan only on resident loads — paged loads defer to the
  // bucket_range() guard so the offset array isn't faulted in eagerly.
  if (borrow) return Status::OK();
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IOError("corrupt similarity index: inconsistent offsets");
    }
  }
  return Status::OK();
}

void SimilarityIndex::FlatBuckets::Assign(
    std::vector<std::pair<uint64_t, int>>* entries_in, size_t cap) {
  std::vector<std::pair<uint64_t, int>>& entries = *entries_in;
  std::sort(entries.begin(), entries.end());
  std::vector<uint64_t>& out_keys = keys.mut();
  std::vector<uint32_t>& out_offsets = offsets.mut();
  std::vector<int>& out_postings = postings.mut();
  out_keys.clear();
  out_offsets.assign(1, 0);
  out_postings.clear();
  for (size_t i = 0; i < entries.size();) {
    const uint64_t key = entries[i].first;
    size_t end = i;
    while (end < entries.size() && entries[end].first == key) ++end;
    const size_t take = std::min(end - i, cap);
    for (size_t k = i; k < i + take; ++k) {
      out_postings.push_back(entries[k].second);
    }
    VER_CHECK(out_postings.size() <= UINT32_MAX)
        << "similarity index bucket store exceeds 2^32 postings, the "
           "limit of the snapshot's u32 offsets";
    out_keys.push_back(key);
    out_offsets.push_back(static_cast<uint32_t>(out_postings.size()));
    i = end;
  }
}

void SimilarityIndex::Build(const std::vector<ColumnProfile>* profiles,
                            const SimilarityOptions& options,
                            ThreadPool* pool) {
  profiles_ = profiles;
  options_ = options;
  const std::vector<ColumnProfile>& ps = *profiles;
  eligible_.assign(ps.size(), false);
  for (size_t i = 0; i < ps.size(); ++i) {
    eligible_[i] = ps[i].stats.num_distinct >= options_.min_distinct;
  }
  auto [bands, rows_per_band] = BandGeometry(ps, options_);
  rows_per_band_ = rows_per_band;

  // Tier 1 (value postings): contiguous profile chunks collect their
  // (value hash, id) pairs; Assign sorts the concatenation, so the result
  // does not depend on the chunking.
  const size_t n = ps.size();
  std::vector<std::vector<std::pair<uint64_t, int>>> local(
      std::max<size_t>(1, std::min(RecommendedChunks(pool), n)));
  ParallelFor(pool, n, local.size(), [&](size_t c, size_t lo, size_t hi) {
    for (size_t id = lo; id < hi; ++id) {
      if (!eligible_[id]) continue;
      for (uint64_t h : ps[id].distinct_hashes) {
        local[c].emplace_back(h, static_cast<int>(id));
      }
    }
  });
  std::vector<std::pair<uint64_t, int>> values;
  for (std::vector<std::pair<uint64_t, int>>& chunk : local) {
    values.insert(values.end(), chunk.begin(), chunk.end());
    chunk = {};
  }
  flat_value_postings_.Assign(&values, options_.max_posting_length);

  // Tier 2 (LSH banding): every band is an independent bucket store.
  flat_band_buckets_.assign(static_cast<size_t>(bands), FlatBuckets());
  ParallelFor(pool, flat_band_buckets_.size(), flat_band_buckets_.size(),
              [&](size_t, size_t b0, size_t b1) {
                std::vector<std::pair<uint64_t, int>> entries;
                for (size_t b = b0; b < b1; ++b) {
                  entries.clear();
                  for (size_t id = 0; id < n; ++id) {
                    if (!eligible_[id]) continue;
                    entries.emplace_back(
                        BandHash(ps[id].signature, static_cast<int>(b)),
                        static_cast<int>(id));
                  }
                  flat_band_buckets_[b].Assign(&entries, SIZE_MAX);
                }
              });
}

uint64_t SimilarityIndex::BandHash(const MinHashSignature& sig,
                                   int band) const {
  uint64_t h = Mix64(static_cast<uint64_t>(band) + 0xabcdef12345ULL);
  int start = band * rows_per_band_;
  int end = std::min<int>(start + rows_per_band_,
                          static_cast<int>(sig.slots.size()));
  for (int i = start; i < end; ++i) h = HashCombine(h, sig.slots[i]);
  return h;
}

std::vector<int> SimilarityIndex::Candidates(int profile_index) const {
  const std::vector<ColumnProfile>& profiles = *profiles_;
  const ColumnProfile& p = profiles[static_cast<size_t>(profile_index)];
  if (p.stats.num_distinct < options_.min_distinct) return {};
  // Union the posting lists into a packed bitset over the profile universe
  // — word-level set bits instead of unordered_set nodes — then drain it
  // ascending: the same sorted candidate list as the set + sort this
  // replaces, with no per-candidate allocation or rehash.
  PackedBitset out(profiles.size());
  const size_t num_profiles = profiles.size();
  auto collect_flat = [&out, profile_index, num_profiles](
                          const FlatBuckets& flat, uint64_t key) {
    if (flat.keys.empty()) return;
    ptrdiff_t i = flat.find(key);
    if (i < 0) return;
    auto [pb, pe] = flat.bucket_range(static_cast<size_t>(i));
    for (uint32_t o = pb; o < pe; ++o) {
      int p = flat.postings[o];
      // Range guard replaces the load-time posting scan for paged stores:
      // a corrupt posting is dropped instead of indexing out of bounds.
      if (p != profile_index && p >= 0 && static_cast<size_t>(p) < num_profiles) {
        out.set(static_cast<size_t>(p));
      }
    }
  };
  for (uint64_t h : p.distinct_hashes) collect_flat(flat_value_postings_, h);
  for (size_t b = 0; b < flat_band_buckets_.size(); ++b) {
    collect_flat(flat_band_buckets_[b],
                 BandHash(p.signature, static_cast<int>(b)));
  }
  std::vector<int> v;
  v.reserve(out.Popcount());
  out.ForEachSetBit(
      [&v](size_t bit) { v.push_back(static_cast<int>(bit)); });
  return v;
}

std::vector<Neighbor> SimilarityIndex::ContainmentNeighbors(
    int profile_index, double threshold) const {
  const std::vector<ColumnProfile>& profiles = *profiles_;
  std::vector<Neighbor> out;
  const ColumnProfile& query = profiles[static_cast<size_t>(profile_index)];
  for (int other : Candidates(profile_index)) {
    double c = ProfileContainment(query, profiles[static_cast<size_t>(other)]);
    if (c >= threshold) out.push_back(Neighbor{other, c});
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.profile_index < b.profile_index;
  });
  return out;
}

std::vector<Neighbor> SimilarityIndex::JaccardNeighbors(
    int profile_index, double threshold) const {
  const std::vector<ColumnProfile>& profiles = *profiles_;
  std::vector<Neighbor> out;
  const ColumnProfile& query = profiles[static_cast<size_t>(profile_index)];
  for (int other : Candidates(profile_index)) {
    double j = ProfileJaccard(query, profiles[static_cast<size_t>(other)]);
    if (j >= threshold) out.push_back(Neighbor{other, j});
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.profile_index < b.profile_index;
  });
  return out;
}

std::vector<std::pair<int, int>> SimilarityIndex::AllCandidatePairs() const {
  std::unordered_set<uint64_t> seen;
  std::vector<std::pair<int, int>> pairs;
  auto add_store = [&](const FlatBuckets& flat) {
    for (size_t k = 0; k < flat.num_keys(); ++k) {
      auto [pb, pe] = flat.bucket_range(k);
      for (uint32_t i = pb; i < pe; ++i) {
        for (uint32_t j = i + 1; j < pe; ++j) {
          int a = flat.postings[i], b = flat.postings[j];
          if (a > b) std::swap(a, b);
          uint64_t key = (static_cast<uint64_t>(a) << 32) |
                         static_cast<uint64_t>(static_cast<uint32_t>(b));
          if (seen.insert(key).second) pairs.emplace_back(a, b);
        }
      }
    }
  };
  add_store(flat_value_postings_);
  for (const FlatBuckets& band : flat_band_buckets_) add_store(band);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void SimilarityIndex::SaveTo(SerdeWriter* w) const {
  // Options are NOT written here: they live once in the engine's options
  // section (the single source of truth) and are passed back to LoadFrom.
  w->WriteI32(rows_per_band_);
  w->WriteU64(eligible_.size());
  for (bool e : eligible_) w->WriteBool(e);
  flat_value_postings_.SaveTo(w);
  w->WriteU64(flat_band_buckets_.size());
  for (const FlatBuckets& band : flat_band_buckets_) band.SaveTo(w);
}

Status SimilarityIndex::LoadFrom(SerdeReader* r,
                                 const std::vector<ColumnProfile>* profiles,
                                 const SimilarityOptions& options,
                                 bool borrow) {
  int rows_per_band;
  VER_RETURN_IF_ERROR(r->ReadI32(&rows_per_band));
  uint64_t num_eligible;
  VER_RETURN_IF_ERROR(r->ReadU64(&num_eligible));
  if (num_eligible != profiles->size()) {
    return Status::InvalidArgument(
        "snapshot similarity index covers " + std::to_string(num_eligible) +
        " columns but the profile section has " +
        std::to_string(profiles->size()));
  }
  std::vector<bool> eligible(static_cast<size_t>(num_eligible));
  for (uint64_t i = 0; i < num_eligible; ++i) {
    bool e;
    VER_RETURN_IF_ERROR(r->ReadBool(&e));
    eligible[i] = e;
  }
  // Posting values index the profile vector; a checksum-valid but crafted
  // or stale file must not smuggle in out-of-range indices that queries
  // would dereference.
  auto postings_in_range = [profiles](const FlatBuckets& flat) {
    for (int p : flat.postings) {
      if (p < 0 || static_cast<size_t>(p) >= profiles->size()) return false;
    }
    return true;
  };
  FlatBuckets values;
  VER_RETURN_IF_ERROR(values.LoadFrom(r, borrow));
  uint64_t num_bands;
  VER_RETURN_IF_ERROR(r->ReadU64(&num_bands));
  // An empty serialized FlatBuckets is 24 bytes (three vector lengths);
  // guard the band count before sizing the vector.
  VER_RETURN_IF_ERROR(r->CheckCount(num_bands, 24, "band count"));
  std::vector<FlatBuckets> bands(static_cast<size_t>(num_bands));
  for (auto& band : bands) VER_RETURN_IF_ERROR(band.LoadFrom(r, borrow));
  // Paged loads skip the O(postings) scan — it would fault in every
  // posting page, defeating the lazy cold start. Candidates() range-guards
  // each posting it reads instead.
  const bool deep_validate = !borrow;
  if (deep_validate) {
    if (!postings_in_range(values)) {
      return Status::IOError(
          "corrupt similarity index: posting out of profile range");
    }
    for (const auto& band : bands) {
      if (!postings_in_range(band)) {
        return Status::IOError(
            "corrupt similarity index: band posting out of profile range");
      }
    }
  }
  // BandHash indexes signature slots by band * rows_per_band, so the
  // stored geometry must be the one the profiles and options imply.
  auto [expected_bands, expected_rows] = BandGeometry(*profiles, options);
  if (rows_per_band != expected_rows ||
      num_bands != static_cast<uint64_t>(expected_bands)) {
    return Status::IOError(
        "corrupt similarity index: stores " + std::to_string(num_bands) +
        " bands of " + std::to_string(rows_per_band) +
        " rows, but the profiles and options imply " +
        std::to_string(expected_bands) + " bands of " +
        std::to_string(expected_rows) + " rows");
  }

  profiles_ = profiles;
  options_ = options;
  rows_per_band_ = rows_per_band;
  eligible_ = std::move(eligible);
  flat_value_postings_ = std::move(values);
  flat_band_buckets_ = std::move(bands);
  return Status::OK();
}

}  // namespace ver
