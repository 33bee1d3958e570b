// Self-test of the benchmark's own answer check: a served response that is
// not the serial reference, or that carries a non-OK status, must count as
// failed, and a correct one as succeeded. Also round-trips the pool file the
// paged workload hands between processes. Exits non-zero on any failure.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/noisy_query.h"
#include "workload/wdc_gen.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "pass" : "FAIL", what);
  if (!ok) ++failures;
}

int Main(const std::string& scratch_dir) {
  ver::WdcSpec spec;
  spec.versions_per_topic = 3;
  spec.num_filler_tables = 4;
  ver::GeneratedDataset dataset = ver::GenerateWdcLike(spec);
  ver::VerConfig config;

  std::vector<PoolEntry> pool;
  for (int gt = 0; gt < 2; ++gt) {
    ver::Result<ver::ExampleQuery> query = ver::MakeNoisyQuery(
        dataset.repo, dataset.queries[static_cast<size_t>(gt)],
        ver::NoiseLevel::kZero, 3, 7);
    if (!query.ok()) {
      Expect(false, "MakeNoisyQuery");
      return 1;
    }
    PoolEntry entry;
    entry.gt = gt;
    entry.query = std::move(query).value();
    pool.push_back(std::move(entry));
  }
  {
    ver::Ver reference(&dataset.repo, config);
    for (PoolEntry& entry : pool) {
      Expect(ComputeReference(reference, dataset.repo, dataset.queries, false,
                              &entry)
                 .ok(),
             "reference computes");
    }
  }
  Expect(pool[0].reference != pool[1].reference,
         "distinct queries have distinct references");

  ver::ServingOptions options;
  options.num_workers = 2;
  ver::VerServer server(&dataset.repo, config, options);
  ver::ServedResult right = server.Serve(MakeRequest(pool[0], false));
  ver::ServedResult other = server.Serve(MakeRequest(pool[1], false));
  Expect(CheckServed(pool[0], right) == Verdict::kOk,
         "the served answer equals its reference");
  Expect(CheckServed(pool[0], other) == Verdict::kMismatch,
         "another query's answer is a mismatch");

  // One view dropped from an otherwise correct answer.
  auto tampered = std::make_shared<ver::QueryResult>(*right.result);
  Expect(!tampered->views.empty(), "the reference has views to drop");
  if (!tampered->views.empty()) tampered->views.pop_back();
  ver::ServedResult wrong = right;
  wrong.result = tampered;
  Expect(CheckServed(pool[0], wrong) == Verdict::kMismatch,
         "a truncated answer is a mismatch");

  ver::ServedResult refused;
  refused.status = ver::Status::Unavailable("queue full");
  Expect(CheckServed(pool[0], refused) == Verdict::kBadStatus,
         "a non-OK status is a failure");

  // Through the checker thread, as perfbench_workload uses it.
  Checker checker(&pool, false, Clock::now());
  for (const ver::ServedResult* served : {&right, &wrong, &refused, &right}) {
    Completed done;
    done.entry = 0;
    done.served = *served;
    checker.Enqueue(std::move(done));
  }
  checker.Drain();
  const Tally& t = checker.tally();
  Expect(t.sent == 4 && t.succeeded == 2 && t.failed() == 2 &&
             t.mismatched == 1 && t.bad_status == 1,
         "the checker counts 2 of 4 as failed");
  Expect(t.gt_hits == (pool[0].gt_hit ? 2 : 0),
         "only succeeded requests count as ground-truth hits");

  // Pool hand-off file.
  const std::string path = scratch_dir + "/selftest_pool.bin";
  std::vector<PoolEntry> read;
  Expect(WritePool(path, pool) && ReadPool(path, &read) &&
             read.size() == pool.size() &&
             read[1].reference == pool[1].reference &&
             read[1].query.columns == pool[1].query.columns &&
             read[1].query.attribute_hints == pool[1].query.attribute_hints,
         "the pool file round-trips");
  std::remove(path.c_str());

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

// argv[1]: directory for the self-test's scratch file (default ".").
int main(int argc, char** argv) {
  return perfbench::Main(argc > 1 ? argv[1] : ".");
}
