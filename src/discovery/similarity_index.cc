#include "discovery/similarity_index.h"

#include <algorithm>
#include <unordered_set>

#include "util/bitset.h"
#include "util/hash.h"

namespace ver {

ptrdiff_t SimilarityIndex::FlatBuckets::find(uint64_t key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return it - keys.begin();
}

size_t SimilarityIndex::FlatBuckets::posting_count(uint64_t key) const {
  if (keys.empty()) return 0;
  ptrdiff_t i = find(key);
  if (i < 0) return 0;
  auto [b, e] = bucket_range(static_cast<size_t>(i));
  return e - b;
}

void SimilarityIndex::FlatBuckets::SaveTo(SerdeWriter* w) const {
  w->WriteU64Array(keys.data(), keys.size());
  w->WriteU32Array(offsets.data(), offsets.size());
  w->WriteI32Array(postings.data(), postings.size());
}

Status SimilarityIndex::FlatBuckets::LoadFrom(SerdeReader* r,
                                              const PagerBinding* binding) {
  {
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(
        r->ReadArrayExtent(sizeof(uint64_t), "bucket keys", &raw, &n));
    keys.Adopt(binding, raw, n);
  }
  {
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(
        r->ReadArrayExtent(sizeof(uint32_t), "bucket offsets", &raw, &n));
    offsets.Adopt(binding, raw, n);
  }
  {
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(
        r->ReadArrayExtent(sizeof(int), "bucket postings", &raw, &n));
    postings.Adopt(binding, raw, n);
  }
  bool valid = keys.empty() ? offsets.empty()
                            : offsets.size() == keys.size() + 1 &&
                                  offsets.front() == 0 &&
                                  offsets.back() == postings.size();
  if (!valid) {
    return Status::IOError("corrupt similarity index: inconsistent offsets");
  }
  // Monotonicity scan only on resident loads — paged loads defer to the
  // bucket_range() guard so the offset array isn't faulted in eagerly.
  if (binding != nullptr && binding->pool != nullptr) return Status::OK();
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IOError("corrupt similarity index: inconsistent offsets");
    }
  }
  return Status::OK();
}

void SimilarityIndex::SetupBands() {
  const auto& ps = *profiles_;
  int permutations =
      ps.empty() ? 128 : ps.front().signature.num_permutations();
  int bands = std::max(1, std::min(options_.lsh_bands, permutations));
  rows_per_band_ = std::max(1, permutations / bands);
  band_buckets_.resize(bands);
  flat_band_buckets_.resize(bands);
}

void SimilarityIndex::Build(const std::vector<ColumnProfile>* profiles,
                            const SimilarityOptions& options,
                            ThreadPool* pool) {
  profiles_ = profiles;
  options_ = options;
  value_postings_.clear();
  band_buckets_.clear();
  flat_value_postings_ = FlatBuckets();
  flat_band_buckets_.clear();
  eligible_.clear();
  SetupBands();
  AddProfiles(0, pool);
}

void SimilarityIndex::AddProfiles(size_t first_new, ThreadPool* pool) {
  std::vector<int> ids;
  ids.reserve(profiles_->size() - std::min(first_new, profiles_->size()));
  for (size_t i = first_new; i < profiles_->size(); ++i) {
    ids.push_back(static_cast<int>(i));
  }
  InsertProfiles(ids, pool);
}

void SimilarityIndex::InsertProfiles(const std::vector<int>& ids,
                                     ThreadPool* pool) {
  const auto& ps = *profiles_;
  // Eligibility is a pure function of per-column stats; refreshing it over
  // the whole vector keeps the snapshot section's "one flag per profile"
  // invariant.
  eligible_.resize(ps.size(), false);
  for (size_t i = 0; i < ps.size(); ++i) {
    eligible_[i] = ps[i].stats.num_distinct >= options_.min_distinct;
  }
  if (ids.empty()) return;
  // The posting cap spans both stores: a hash whose flat (snapshot-loaded)
  // posting list already holds N entries accepts only max_posting_length-N
  // more into the overlay map.
  auto posting_budget = [this](uint64_t h, size_t overlay_size) {
    return flat_value_postings_.posting_count(h) + overlay_size <
           options_.max_posting_length;
  };
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int id : ids) {
      if (!eligible_[static_cast<size_t>(id)]) continue;
      const ColumnProfile& p = ps[static_cast<size_t>(id)];
      for (uint64_t h : p.distinct_hashes) {
        auto& posting = value_postings_[h];
        if (posting_budget(h, posting.size())) {
          posting.push_back(id);
        }
      }
      for (size_t b = 0; b < band_buckets_.size(); ++b) {
        band_buckets_[b][BandHash(p.signature, static_cast<int>(b))].push_back(
            id);
      }
    }
    return;
  }

  // Tier 2 (LSH banding): each band owns an independent bucket map, so a
  // worker filling whole bands — scanning members in ascending index order
  // — writes exactly what the serial loop writes.
  size_t bands = band_buckets_.size();
  ParallelFor(pool, bands, bands, [&](size_t, size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (int id : ids) {
        if (!eligible_[static_cast<size_t>(id)]) continue;
        band_buckets_[b][BandHash(ps[static_cast<size_t>(id)].signature,
                                  static_cast<int>(b))]
            .push_back(id);
      }
    }
  });

  // Tier 1 (value postings): contiguous member chunks build local posting
  // maps; merging in chunk order with the cap applied at merge time keeps
  // each posting list equal to the first max_posting_length member indices
  // in ascending order — the serial result. Chunk boundaries depend only
  // on ids.size(), never the pool.
  size_t n = ids.size();
  size_t num_chunks = std::max<size_t>(1, std::min(RecommendedChunks(pool), n));
  std::vector<std::unordered_map<uint64_t, std::vector<int>>> local(num_chunks);
  ParallelFor(pool, n, num_chunks, [&](size_t c, size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      int id = ids[k];
      if (!eligible_[static_cast<size_t>(id)]) continue;
      for (uint64_t h : ps[static_cast<size_t>(id)].distinct_hashes) {
        auto& posting = local[c][h];
        if (posting.size() < options_.max_posting_length) {
          posting.push_back(id);
        }
      }
    }
  });
  for (auto& chunk : local) {
    for (auto& [h, chunk_ids] : chunk) {
      auto& posting = value_postings_[h];
      for (int id : chunk_ids) {
        if (!posting_budget(h, posting.size())) break;
        posting.push_back(id);
      }
    }
  }
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
  for (uint64_t h : p.distinct_hashes) {
    collect_flat(flat_value_postings_, h);
    auto it = value_postings_.find(h);
    if (it == value_postings_.end()) continue;
    for (int other : it->second) {
      if (other != profile_index) out.set(static_cast<size_t>(other));
    }
  }
  for (size_t b = 0; b < band_buckets_.size(); ++b) {
    uint64_t key = BandHash(p.signature, static_cast<int>(b));
    if (b < flat_band_buckets_.size()) {
      collect_flat(flat_band_buckets_[b], key);
    }
    auto it = band_buckets_[b].find(key);
    if (it == band_buckets_[b].end()) continue;
    for (int other : it->second) {
      if (other != profile_index) out.set(static_cast<size_t>(other));
    }
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
  auto add_bucket = [&](const std::vector<int>& bucket) {
    for (size_t i = 0; i < bucket.size(); ++i) {
      for (size_t j = i + 1; j < bucket.size(); ++j) {
        int a = bucket[i], b = bucket[j];
        if (a > b) std::swap(a, b);
        uint64_t key = (static_cast<uint64_t>(a) << 32) |
                       static_cast<uint64_t>(static_cast<uint32_t>(b));
        if (seen.insert(key).second) pairs.emplace_back(a, b);
      }
    }
  };
  // A key may live in both stores (flat base + overlay growth); its
  // logical bucket is the concatenation.
  auto add_store_pair =
      [&](const FlatBuckets& flat,
          const std::unordered_map<uint64_t, std::vector<int>>& map) {
        std::vector<int> combined;
        for (size_t i = 0; i < flat.num_keys(); ++i) {
          auto [pb, pe] = flat.bucket_range(i);
          combined.assign(flat.postings.begin() + pb,
                          flat.postings.begin() + pe);
          auto it = map.find(flat.keys[i]);
          if (it != map.end()) {
            combined.insert(combined.end(), it->second.begin(),
                            it->second.end());
          }
          add_bucket(combined);
        }
        for (const auto& [key, bucket] : map) {
          if (!flat.keys.empty() && flat.find(key) >= 0) continue;  // merged
          add_bucket(bucket);
        }
      };
  add_store_pair(flat_value_postings_, value_postings_);
  for (size_t b = 0; b < band_buckets_.size(); ++b) {
    static const FlatBuckets kEmpty;
    add_store_pair(
        b < flat_band_buckets_.size() ? flat_band_buckets_[b] : kEmpty,
        band_buckets_[b]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// SaveTo merges the flat store and the overlay map into one sorted flat
// store; for a key in both, flat postings (older, lower profile indices)
// come first — the insertion order of a from-scratch build.
Status SimilarityIndex::SaveTo(SerdeWriter* w) const {
  auto save_merged =
      [w](const FlatBuckets& flat,
          const std::unordered_map<uint64_t, std::vector<int>>& map)
      -> Status {
        std::vector<uint64_t> map_keys;
        map_keys.reserve(map.size());
        for (const auto& [key, bucket] : map) {
          (void)bucket;
          map_keys.push_back(key);
        }
        std::sort(map_keys.begin(), map_keys.end());
        FlatBuckets out;
        out.offsets.mut().push_back(0);
        size_t fi = 0, mi = 0;
        auto append_flat = [&](size_t i) {
          auto [pb, pe] = flat.bucket_range(i);
          out.postings.mut().insert(out.postings.mut().end(),
                                    flat.postings.begin() + pb,
                                    flat.postings.begin() + pe);
        };
        auto append_map = [&](uint64_t key) {
          const std::vector<int>& bucket = map.at(key);
          out.postings.mut().insert(out.postings.mut().end(), bucket.begin(),
                                    bucket.end());
        };
        while (fi < flat.num_keys() || mi < map_keys.size()) {
          if (mi >= map_keys.size() ||
              (fi < flat.num_keys() && flat.keys[fi] < map_keys[mi])) {
            out.keys.mut().push_back(flat.keys[fi]);
            append_flat(fi++);
          } else if (fi >= flat.num_keys() || map_keys[mi] < flat.keys[fi]) {
            out.keys.mut().push_back(map_keys[mi]);
            append_map(map_keys[mi++]);
          } else {  // both stores: flat (older profiles) first
            out.keys.mut().push_back(flat.keys[fi]);
            append_flat(fi++);
            append_map(map_keys[mi++]);
          }
          if (out.postings.size() > UINT32_MAX) {
            return Status::OutOfRange(
                "similarity index exceeds the snapshot format's u32 offset "
                "range; cannot save");
          }
          out.offsets.mut().push_back(
              static_cast<uint32_t>(out.postings.size()));
        }
        out.SaveTo(w);
        return Status::OK();
      };

  // Options are NOT written here: they live once in the engine's options
  // section (the single source of truth) and are passed back to LoadFrom.
  w->WriteI32(rows_per_band_);
  w->WriteU64(eligible_.size());
  for (bool e : eligible_) w->WriteBool(e);
  VER_RETURN_IF_ERROR(save_merged(flat_value_postings_, value_postings_));
  w->WriteU64(band_buckets_.size());
  static const FlatBuckets kEmpty;
  for (size_t b = 0; b < band_buckets_.size(); ++b) {
    VER_RETURN_IF_ERROR(save_merged(
        b < flat_band_buckets_.size() ? flat_band_buckets_[b] : kEmpty,
        band_buckets_[b]));
  }
  return Status::OK();
}

Status SimilarityIndex::LoadFrom(SerdeReader* r,
                                 const std::vector<ColumnProfile>* profiles,
                                 const SimilarityOptions& options,
                                 const PagerBinding* binding) {
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
  VER_RETURN_IF_ERROR(values.LoadFrom(r, binding));
  uint64_t num_bands;
  VER_RETURN_IF_ERROR(r->ReadU64(&num_bands));
  // An empty serialized FlatBuckets is 24 bytes (three vector lengths);
  // guard the band count before sizing the vector.
  VER_RETURN_IF_ERROR(r->CheckCount(num_bands, 24, "band count"));
  std::vector<FlatBuckets> bands(static_cast<size_t>(num_bands));
  for (auto& band : bands) VER_RETURN_IF_ERROR(band.LoadFrom(r, binding));
  // Paged loads skip the O(postings) scan — it would fault in every
  // posting page, defeating the lazy cold start. Candidates() range-guards
  // each posting it reads instead.
  const bool deep_validate = binding == nullptr || binding->pool == nullptr;
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

  profiles_ = profiles;
  options_ = options;
  rows_per_band_ = rows_per_band;
  eligible_ = std::move(eligible);
  flat_value_postings_ = std::move(values);
  flat_band_buckets_ = std::move(bands);
  value_postings_.clear();
  band_buckets_.assign(flat_band_buckets_.size(), {});
  return Status::OK();
}

}  // namespace ver
