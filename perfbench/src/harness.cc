#include "harness.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "query_fingerprint.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

uint64_t FingerprintHash(const ver::QueryResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : ver::Fingerprint(result)) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

ver::DiscoveryRequest MakeRequest(const PoolEntry& entry, bool first_view) {
  ver::DiscoveryRequest request = ver::DiscoveryRequest::ForQuery(entry.query);
  if (first_view) request.StopAfter(1);
  return request;
}

ver::Status ComputeReference(const ver::Ver& ver,
                             const ver::TableRepository& repo,
                             const std::vector<ver::GroundTruthQuery>& gts,
                             bool first_view, PoolEntry* entry) {
  ver::DiscoveryResponse response =
      ver.Execute(MakeRequest(*entry, first_view));
  if (!response.status.ok()) return response.status;
  const ver::QueryResult& result = response.result;
  entry->reference = FingerprintHash(result);
  std::vector<ver::View> surviving;
  for (int idx : result.distillation.surviving) {
    surviving.push_back(result.views[static_cast<size_t>(idx)]);
  }
  ver::Result<bool> hit = ver::ContainsGroundTruth(
      repo, gts[static_cast<size_t>(entry->gt)], surviving);
  if (!hit.ok()) return hit.status();
  entry->gt_hit = hit.value();
  return ver::Status::OK();
}

Verdict CheckServed(const PoolEntry& entry, const ver::ServedResult& served) {
  if (!served.status.ok() || served.result == nullptr) {
    return Verdict::kBadStatus;
  }
  return FingerprintHash(*served.result) == entry.reference
             ? Verdict::kOk
             : Verdict::kMismatch;
}

void Tally::Add(Verdict verdict, bool gt_hit) {
  ++sent;
  switch (verdict) {
    case Verdict::kOk:
      ++succeeded;
      if (gt_hit) ++gt_hits;
      break;
    case Verdict::kBadStatus:
      ++bad_status;
      break;
    case Verdict::kMismatch:
      ++mismatched;
      break;
  }
}

// ------------------------------------------------------------- pool file

namespace {

constexpr char kPoolMagic[8] = {'P', 'B', 'P', 'O', 'O', 'L', '1', '\n'};

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

class Reader {
 public:
  explicit Reader(std::string bytes) : bytes_(std::move(bytes)) {}
  bool U64(uint64_t* v) {
    if (bytes_.size() - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool String(std::string* s) {
    uint64_t n = 0;
    if (!U64(&n) || bytes_.size() - pos_ < n) return false;
    s->assign(bytes_, pos_, n);
    pos_ += n;
    return true;
  }
  bool Skip(size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  size_t pos_ = 0;
};

}  // namespace

bool WritePool(const std::string& path, const std::vector<PoolEntry>& pool) {
  std::string out(kPoolMagic, sizeof(kPoolMagic));
  PutU64(&out, pool.size());
  for (const PoolEntry& e : pool) {
    PutU64(&out, e.reference);
    PutU64(&out, e.gt_hit ? 1 : 0);
    PutU64(&out, e.query.columns.size());
    for (size_t a = 0; a < e.query.columns.size(); ++a) {
      PutString(&out, e.query.attribute_hints[a]);
      PutU64(&out, e.query.columns[a].size());
      for (const std::string& v : e.query.columns[a]) PutString(&out, v);
    }
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(f);
}

bool ReadPool(const std::string& path, std::vector<PoolEntry>* pool) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  Reader r(std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>()));
  if (r.bytes().compare(0, sizeof(kPoolMagic), kPoolMagic,
                        sizeof(kPoolMagic)) != 0 ||
      !r.Skip(sizeof(kPoolMagic))) {
    return false;
  }
  // Every count is bounded by the bytes left, so a corrupt count fails on
  // the first short read instead of reserving memory.
  uint64_t n = 0;
  if (!r.U64(&n)) return false;
  pool->clear();
  for (uint64_t i = 0; i < n; ++i) {
    PoolEntry e;
    uint64_t hit = 0, attrs = 0;
    if (!r.U64(&e.reference) || !r.U64(&hit) || !r.U64(&attrs)) return false;
    e.gt_hit = hit != 0;
    for (uint64_t a = 0; a < attrs; ++a) {
      std::string hint;
      uint64_t values = 0;
      if (!r.String(&hint) || !r.U64(&values)) return false;
      e.query.attribute_hints.push_back(std::move(hint));
      e.query.columns.emplace_back();
      for (uint64_t v = 0; v < values; ++v) {
        std::string value;
        if (!r.String(&value)) return false;
        e.query.columns.back().push_back(std::move(value));
      }
    }
    pool->push_back(std::move(e));
  }
  return r.AtEnd();
}

// --------------------------------------------------------------- tracing

void Completion::Signal(int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  mask_ |= 1u << slot;
  cv_.notify_one();
}

uint32_t Completion::WaitAny() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return mask_ != 0; });
  uint32_t mask = mask_;
  mask_ = 0;
  return mask;
}

void ClientObserver::OnStageStarted(ver::PipelineStage /*stage*/) {
  if (traced_) stage_start_ = Clock::now();
}

void ClientObserver::OnStageFinished(ver::PipelineStage stage,
                                     double /*elapsed_s*/) {
  if (traced_) events_.push_back({stage, stage_start_, Clock::now()});
}

void ClientObserver::OnFinished(const ver::Status& /*status*/) {
  completion_->Signal(slot_);
}

namespace {

const char* LayerOf(ver::PipelineStage stage) {
  switch (stage) {
    case ver::PipelineStage::kColumnSelection:
      return "core.column_selection";
    case ver::PipelineStage::kJoinGraphSearch:
      return "core.join_graph_search";
    case ver::PipelineStage::kMaterialization:
      return "engine.materializer";
    case ver::PipelineStage::kVdIo:
      return "engine.vd_io";
    case ver::PipelineStage::kDistillation:
      return "core.distillation";
    case ver::PipelineStage::kRanking:
      return "baselines.fast_topk";
  }
  return "?";
}

std::string ViewKey(const ver::JoinGraph& graph,
                    const std::vector<ver::ColumnRef>& projection) {
  std::string key = graph.Signature();
  for (const ver::ColumnRef& c : projection) {
    key += "|" + std::to_string(c.Encode());
  }
  return key;
}

// Candidates the materializer attempted for `result`: all ranked candidates
// in a batch run; in an early-terminated StopAfter run, the rank position of
// the last kept view plus one.
int64_t CandidatesAttempted(const ver::QueryResult& result,
                            bool early_terminated) {
  const auto& candidates = result.search.candidates;
  if (!early_terminated || result.views.empty()) {
    return static_cast<int64_t>(candidates.size());
  }
  // The materializer keeps the first occurrence of a graph+projection, so
  // the first ranked candidate with the last view's key is where it stopped.
  const ver::View& last = result.views.back();
  std::string key = ViewKey(last.graph, last.projection);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (ViewKey(candidates[i].graph, candidates[i].projection) == key) {
      return static_cast<int64_t>(i) + 1;
    }
  }
  return static_cast<int64_t>(candidates.size());
}

// Turns one traced request into spans and adds its self times and work
// counts to `totals`. `origin` anchors span timestamps.
void AccountTraced(const Completed& done, bool first_view,
                   Clock::time_point origin, LayerTotals* totals,
                   std::vector<Span>* spans) {
  auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return Seconds(a, b) * 1e3;
  };
  const ver::QueryResult* result =
      done.served.status.ok() ? done.served.result.get() : nullptr;
  Clock::time_point first_stage =
      done.events.empty() ? done.returned : done.events.front().start;

  const size_t root = spans->size();
  auto add = [&](const char* layer, Clock::time_point a, Clock::time_point b,
                 int parent, bool derived) {
    Span s;
    s.request = done.request_id;
    s.index = static_cast<int>(spans->size() - root);
    s.layer = layer;
    s.start_ns = ns(a);
    s.end_ns = ns(b);
    s.parent = parent;
    s.derived = derived;
    spans->push_back(s);
    return s.index;
  };
  add("serving.request", done.submitted, done.returned, -1, false);
  add("serving.queue", done.submitted, first_stage, 0, false);

  double request_ms = ms(done.submitted, done.returned);
  double queue_ms = ms(done.submitted, first_stage);
  double stages_ms = 0;
  for (const StageEvent& e : done.events) {
    int index = add(LayerOf(e.stage), e.start, e.end, 0, false);
    double self_ms = ms(e.start, e.end);
    stages_ms += self_ms;
    switch (e.stage) {
      case ver::PipelineStage::kColumnSelection:
        totals->column_selection_ms += self_ms;
        break;
      case ver::PipelineStage::kJoinGraphSearch:
        totals->join_graph_search_ms += self_ms;
        break;
      case ver::PipelineStage::kMaterialization:
        if (first_view && result != nullptr) {
          // Under StopAfter one materializer bracket also spans the
          // incremental distillation; its cost is in the response timing.
          double distill_ms = result->timing.four_c_s * 1e3;
          auto child_end = e.start + std::chrono::duration_cast<
                                         Clock::duration>(
                                         std::chrono::duration<double>(
                                             result->timing.four_c_s));
          add("core.distillation", e.start, child_end, index, true);
          totals->distillation_ms += distill_ms;
          self_ms -= distill_ms;
        }
        totals->materializer_self_ms += self_ms;
        break;
      case ver::PipelineStage::kVdIo:
        totals->vd_io_ms += self_ms;
        break;
      case ver::PipelineStage::kDistillation:
        totals->distillation_ms += self_ms;
        break;
      case ver::PipelineStage::kRanking:
        totals->ranking_ms += self_ms;
        break;
    }
  }

  ++totals->requests;
  totals->request_ms += request_ms;
  totals->queue_ms += queue_ms;
  totals->queue_samples_ms.push_back(queue_ms);
  totals->overhead_ms += request_ms - queue_ms - stages_ms;
  if (done.served.cache_hit) ++totals->cache_hits;
  if (result == nullptr) return;
  for (const ver::ColumnSelectionResult& sel : result->selection) {
    totals->candidate_columns += static_cast<int64_t>(sel.candidates.size());
  }
  totals->join_graphs += result->search.num_join_graphs;
  totals->candidates +=
      static_cast<int64_t>(result->search.candidates.size());
  totals->candidates_attempted +=
      CandidatesAttempted(*result, done.served.early_terminated);
  totals->views += static_cast<int64_t>(result->views.size());
  for (const ver::View& v : result->views) totals->output_rows += v.num_rows();
  totals->failures += result->search.num_materialization_failures;
  totals->surviving +=
      static_cast<int64_t>(result->distillation.surviving.size());
}

}  // namespace

// --------------------------------------------------------------- checker

Checker::Checker(const std::vector<PoolEntry>* pool, bool first_view,
                 Clock::time_point origin)
    : pool_(pool), first_view_(first_view), origin_(origin) {
  thread_ = std::thread([this] { Loop(); });
}

Checker::~Checker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Checker::Enqueue(Completed done) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(done));
  ++pending_;
  cv_.notify_all();
}

void Checker::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

void Checker::Loop() {
  // Lowest priority: the check must never take a core from a server worker.
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;
    Completed done = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    const PoolEntry& entry = (*pool_)[done.entry];
    Verdict verdict = CheckServed(entry, done.served);
    if (done.traced) {
      AccountTraced(done, first_view_, origin_, &layers_, &spans_);
    }
    done = Completed();  // release the result before taking the lock
    lock.lock();
    tally_.Add(verdict, entry.gt_hit);
    --pending_;
    cv_.notify_all();
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\":%llu,\"span\":%d,\"parent\":%d,"
                 "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"derived\":%s}\n",
                 static_cast<unsigned long long>(s.request), s.index, s.parent,
                 s.layer, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
