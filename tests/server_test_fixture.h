// Deterministic concurrency harness for VerServer tests.
//
// The serving suites must exercise precise interleavings — a worker held
// mid-dispatch while the test refills the queue, several workers held just
// before execution — without ever sleeping. The primitive here pairs with
// ServingOptions::hooks (serving/serving_options.h): a hook wired to
// WorkerGate::Arrive blocks the worker at an exact point in ServeOne, the
// test thread observes arrivals and releases everything on cue. Every wait
// is on a condition, never on a clock, so the suites are sound under
// ThreadSanitizer and on arbitrarily loaded machines.

#ifndef VER_TESTS_SERVER_TEST_FIXTURE_H_
#define VER_TESTS_SERVER_TEST_FIXTURE_H_

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>

#include "api/discovery_request.h"
#include "storage/repository.h"
#include "table/csv.h"

namespace ver {

/// A gate worker threads block on inside a ServingHooks callback. The test
/// thread waits for an exact number of workers to pile up, then opens the
/// gate; once open it stays open, so later arrivals fall straight through.
class WorkerGate {
 public:
  /// Worker side: registers one arrival and blocks until Open().
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrivals_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  /// Test side: blocks until at least `n` workers have arrived (ever).
  void AwaitArrivals(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrivals_ >= n; });
  }

  /// Releases every blocked worker and all future arrivals.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] int arrivals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int arrivals_ = 0;
  bool open_ = false;
};

/// Small fixed repository for serving-concurrency tests: big enough that
/// queries produce multiple candidate views, small enough that a pipeline
/// run is microseconds (the gates provide all the timing control, so the
/// data only needs to make results distinguishable, not slow).
inline TableRepository MakeServingTestRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name, const std::string& csv) {
    Result<Table> t = ReadCsvString(csv, name);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(repo.AddTable(std::move(t).value()).ok());
  };
  add("cities",
      "city,state\nBoston,Massachusetts\nChicago,Illinois\nAustin,Texas\n"
      "Denver,Colorado\n");
  add("mayors",
      "city,mayor\nBoston,Wu\nChicago,Johnson\nAustin,Watson\nDenver,"
      "Johnston\n");
  add("mayors_old", "city,mayor\nBoston,Walsh\nChicago,Lightfoot\n");
  add("mayors_2019",
      "city,mayor\nBoston,Walsh\nChicago,Emanuel\nAustin,Adler\n");
  return repo;
}

/// The canonical test request against MakeServingTestRepo.
inline DiscoveryRequest ServingTestRequest() {
  return DiscoveryRequest::ForQuery(
      ExampleQuery::FromColumns({{"Boston", "Chicago"}, {"Wu", "Walsh"}}));
}

/// A request with a different canonical key (never cache-hits with
/// ServingTestRequest).
inline DiscoveryRequest ServingTestAltRequest() {
  return DiscoveryRequest::ForQuery(ExampleQuery::FromColumns(
      {{"Austin", "Denver"}, {"Watson", "Johnston"}}));
}

}  // namespace ver

#endif  // VER_TESTS_SERVER_TEST_FIXTURE_H_
