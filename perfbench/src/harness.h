// Benchmark-side machinery shared by perfbench_workload and its self-test:
// the request pool with its serial references, the answer check, the
// closed-loop client observer, and the span/work accounting of traced runs.
//
// Everything here sits outside the program under test: it only calls the
// public entry points of src/ (Ver::Execute, VerServer::Submit/Wait,
// QueryObserver events, the response's funnel fields).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/discovery_request.h"
#include "api/query_observer.h"
#include "serving/ver_server.h"
#include "workload/ground_truth.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// splitmix64 step: derives independent sub-seeds from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// One distinct request of a workload's pool, with its serial reference.
struct PoolEntry {
  int gt = 0;  // index of the ground-truth query it was derived from
  ver::ExampleQuery query;
  /// FNV-1a of the reference result's fingerprint (tests/query_fingerprint.h).
  uint64_t reference = 0;
  /// ContainsGroundTruth over the reference's surviving views.
  bool gt_hit = false;
};

/// FNV-1a 64 of Fingerprint(result): equal hashes = same selection, funnel,
/// views (cell-exact), distillation and ranking.
uint64_t FingerprintHash(const ver::QueryResult& result);

/// The request a pool entry is served as (StopAfter(1) when `first_view`).
ver::DiscoveryRequest MakeRequest(const PoolEntry& entry, bool first_view);

/// Runs `entry` through `ver.Execute` serially and records its reference
/// fingerprint and ground-truth hit. Fails when the pipeline does.
ver::Status ComputeReference(const ver::Ver& ver,
                             const ver::TableRepository& repo,
                             const std::vector<ver::GroundTruthQuery>& gts,
                             bool first_view, PoolEntry* entry);

/// Outcome of checking one served response against its reference.
enum class Verdict { kOk, kBadStatus, kMismatch };
Verdict CheckServed(const PoolEntry& entry, const ver::ServedResult& served);

/// Requests sent / succeeded / failed, split by failure kind.
struct Tally {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t bad_status = 0;
  int64_t mismatched = 0;
  int64_t gt_hits = 0;  // succeeded requests whose reference hit the GT view
  int64_t failed() const { return bad_status + mismatched; }
  void Add(Verdict verdict, bool gt_hit);
};

/// Writes / reads the pool (queries, references, ground-truth hits) for the
/// paged workload's two-process hand-off. Read fails on a truncated or
/// malformed file.
bool WritePool(const std::string& path, const std::vector<PoolEntry>& pool);
bool ReadPool(const std::string& path, std::vector<PoolEntry>* pool);

// --------------------------------------------------------------- tracing

/// One stage bracket seen by an observer (worker-thread timestamps).
struct StageEvent {
  ver::PipelineStage stage = ver::PipelineStage::kColumnSelection;
  Clock::time_point start;
  Clock::time_point end;
};

/// Wakes the closed-loop generator when any client's request finishes.
class Completion {
 public:
  void Signal(int slot);
  /// Blocks until at least one slot signalled; returns and clears the mask.
  uint32_t WaitAny();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t mask_ = 0;
};

/// Per-client observer. Untraced it only signals completion; traced it also
/// records every stage bracket. Events fire on the worker before the ticket's
/// promise is fulfilled, so the generator may read them after Wait returns.
class ClientObserver : public ver::QueryObserver {
 public:
  ClientObserver(Completion* completion, int slot)
      : completion_(completion), slot_(slot) {}

  /// Called by the generator before each Submit.
  void Arm(bool traced) {
    traced_ = traced;
    events_.clear();
  }
  const std::vector<StageEvent>& events() const { return events_; }

  void OnStageStarted(ver::PipelineStage stage) override;
  void OnStageFinished(ver::PipelineStage stage, double elapsed_s) override;
  void OnFinished(const ver::Status& status) override;

 private:
  Completion* completion_;
  int slot_;
  bool traced_ = false;
  Clock::time_point stage_start_;
  std::vector<StageEvent> events_;
};

/// A recorded span: request id, layer, [start, end] in ns since the run's
/// origin, and the index (within the same request) of its parent, -1 for
/// the request root. `derived` spans have a duration taken from the
/// response's PipelineTiming and are placed at their parent's start.
struct Span {
  uint64_t request = 0;
  int index = 0;  // position within the request; the root is 0
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  bool derived = false;
};

/// Per-request sums of layer self times and work counts (traced passes).
struct LayerTotals {
  int64_t requests = 0;
  double request_ms = 0;
  double queue_ms = 0;
  double overhead_ms = 0;  // request span minus queue minus stage spans
  std::vector<double> queue_samples_ms;
  double column_selection_ms = 0;
  double join_graph_search_ms = 0;
  double materializer_self_ms = 0;
  double vd_io_ms = 0;
  double distillation_ms = 0;
  double ranking_ms = 0;
  int64_t cache_hits = 0;
  int64_t candidate_columns = 0;
  int64_t join_graphs = 0;
  int64_t candidates = 0;
  int64_t candidates_attempted = 0;
  int64_t views = 0;
  int64_t output_rows = 0;
  int64_t failures = 0;
  int64_t surviving = 0;
};

/// One finished request as the generator hands it to the checker.
struct Completed {
  size_t entry = 0;
  ver::ServedResult served;
  bool traced = false;
  uint64_t request_id = 0;
  Clock::time_point submitted;
  Clock::time_point returned;  // QueryTicket::Wait returned
  std::vector<StageEvent> events;
};

/// Answer checking (and traced accounting) off the generator thread, so the
/// fingerprinting never delays a client's next request. Runs on one thread
/// at the lowest scheduling priority; the two server workers leave it a
/// core of its own on the 4-core host this benchmark is sized for.
class Checker {
 public:
  Checker(const std::vector<PoolEntry>* pool, bool first_view,
          Clock::time_point origin);
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void Enqueue(Completed done);
  /// Blocks until everything enqueued so far has been checked.
  void Drain();

  /// Valid after Drain().
  const Tally& tally() const { return tally_; }
  const LayerTotals& layers() const { return layers_; }
  const std::vector<Span>& spans() const { return spans_; }
  void ResetTally() { tally_ = Tally(); }

 private:
  void Loop();

  const std::vector<PoolEntry>* pool_;
  bool first_view_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completed> queue_;
  int64_t pending_ = 0;
  bool stop_ = false;
  Tally tally_;
  LayerTotals layers_;
  std::vector<Span> spans_;
  std::thread thread_;
};

/// Writes spans as JSON lines.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
