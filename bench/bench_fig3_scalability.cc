// Fig. 3: VIEW-DISTILLATION scalability across dataset sample portions
// (25%, 50%, 75%, 100%): Total Runtime, Get Views Time (reading the views
// back from CSV files, TimeGetViews in bench_common.h) and 4C Runtime
// distributions, plus the number of views. Total is the pipeline's stages
// plus the Get Views Time; the CSV write has its own column.
//
// Protocol mirrors the paper: random queries over the OpenData-like
// dataset; the subsampling is nested (tables in a smaller portion are in
// every larger one). Runtimes are reported as five-number summaries, like
// the paper's boxplots.
//
// A second section times the offline DiscoveryEngine::Build at each
// repository size, serial vs DiscoveryOptions::parallelism = 8, as
// alternating runs (which side goes first flips every repetition, so
// drifting machine load hits both alike), reports medians and quartiles,
// checks the two indexes agree, and records the measurements as JSON
// (default BENCH_fig3.json in the working directory, overridable with
// VER_BENCH_JSON) so successive PRs have a perf trajectory to compare.

#include <thread>

#include "bench_common.h"
#include "util/stats.h"

namespace ver {
namespace bench {
namespace {

constexpr int kParallelWorkers = 8;
// Builds per side and repository size. The builds take milliseconds, so
// a best-of-3 moved too much between runs to compare commits or the two
// sides; medians and quartiles of 21 alternating runs do not.
constexpr int kBuildRepetitions = 21;

// Wall-clock seconds of one engine build at the given parallelism.
double TimeEngineBuild(const TableRepository& repo, int parallelism,
                       int64_t* joinable_pairs) {
  DiscoveryOptions options;
  options.parallelism = parallelism;
  WallTimer timer;
  std::unique_ptr<DiscoveryEngine> engine =
      DiscoveryEngine::Build(repo, options);
  const double elapsed = timer.ElapsedSeconds();
  *joinable_pairs = engine->num_joinable_column_pairs();
  return elapsed;
}

struct BuildMeasurement {
  double portion = 0;
  int num_tables = 0;
  int64_t num_columns = 0;
  int64_t joinable_pairs = 0;
  FiveNumberSummary serial;
  FiveNumberSummary parallel;

  double speedup() const {
    return parallel.median == 0 ? 0 : serial.median / parallel.median;
  }
};

void WriteJson(const std::vector<BuildMeasurement>& rows) {
  const char* env = std::getenv("VER_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_fig3.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig3_index_build_scalability\",\n");
  std::fprintf(f, "  \"parallel_workers\": %d,\n", kParallelWorkers);
  std::fprintf(f, "  \"repetitions\": %d,\n", kBuildRepetitions);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scale\": %d,\n  \"rows\": [\n", BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const BuildMeasurement& r = rows[i];
    std::fprintf(f,
                 "    {\"portion\": %.2f, \"tables\": %d, \"columns\": %lld, "
                 "\"joinable_pairs\": %lld, \"build_serial_s\": %.6f, "
                 "\"build_serial_q1_s\": %.6f, \"build_serial_q3_s\": %.6f, "
                 "\"build_parallel_s\": %.6f, \"build_parallel_q1_s\": %.6f, "
                 "\"build_parallel_q3_s\": %.6f, \"speedup\": %.3f}%s\n",
                 r.portion, r.num_tables,
                 static_cast<long long>(r.num_columns),
                 static_cast<long long>(r.joinable_pairs), r.serial.median,
                 r.serial.p25, r.serial.p75, r.parallel.median, r.parallel.p25,
                 r.parallel.p75, r.speedup(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void Run() {
  PrintHeader("Fig. 3: VIEW-DISTILLATION scalability vs sample portion",
              "Fig. 3");
  const int num_queries = 20 * BenchScale();
  const std::filesystem::path views_dir =
      std::filesystem::temp_directory_path() / "ver_fig3_views";

  TextTable table({"Portion", "#Tables", "Views (median)", "Total (med)",
                   "GetViews (med)", "4C (med)", "CSV write (med)",
                   "Total 5-num (s)"});

  for (double portion : {0.25, 0.5, 0.75, 1.0}) {
    GeneratedDataset dataset =
        GenerateOpenDataLike(BenchOpenDataSpec(portion, num_queries));
    Ver system(&dataset.repo,
               ConfigWithStrategy(SelectionStrategy::kColumnSelection));

    std::vector<double> totals, io_times, four_c_times, write_times,
        view_counts;
    for (size_t q = 0; q < dataset.queries.size(); ++q) {
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset.repo, dataset.queries[q], NoiseLevel::kZero,
                         3, 9000 + q);
      if (!query.ok()) continue;
      DiscoveryResponse response =
          system.Execute(DiscoveryRequest::ForQuery(query.value()));
      const QueryResult& result = response.result;
      const ViewIoTiming io = TimeGetViews(dataset.repo, result,
                                           system.config().search, views_dir);
      totals.push_back(result.timing.total_s() + io.read_s);
      io_times.push_back(io.read_s);
      four_c_times.push_back(result.timing.four_c_s);
      write_times.push_back(io.write_s);
      view_counts.push_back(static_cast<double>(result.views.size()));
    }
    table.AddRow({std::to_string(portion),
                  std::to_string(dataset.repo.num_tables()),
                  std::to_string(static_cast<int64_t>(Median(view_counts))),
                  FormatSeconds(Median(totals)),
                  FormatSeconds(Median(io_times)),
                  FormatSeconds(Median(four_c_times)),
                  FormatSeconds(Median(write_times)),
                  Summarize(totals).ToString(3)});
  }
  table.Print();
  std::printf(
      "Paper shape: total runtime grows roughly linearly with the number\n"
      "of views; reading views from disk (Get Views Time) dominates and\n"
      "the 4C runtime proper stays comparatively small.\n");

  // ---- offline index-build scalability: serial vs parallel ----
  std::printf(
      "\nOffline DiscoveryEngine::Build: serial vs parallelism=%d, %d "
      "alternating runs each, median [q1, q3]\n",
      kParallelWorkers, kBuildRepetitions);
  TextTable build_table({"Portion", "#Tables", "#Cols", "Join pairs",
                         "Serial", "Parallel", "Speedup"});
  auto format_quartiles = [](const FiveNumberSummary& s) {
    return FormatSeconds(s.median) + " [" + FormatSeconds(s.p25) + ", " +
           FormatSeconds(s.p75) + "]";
  };
  std::vector<BuildMeasurement> measurements;
  for (double portion : {0.25, 0.5, 0.75, 1.0}) {
    GeneratedDataset dataset =
        GenerateOpenDataLike(BenchOpenDataSpec(portion, 1));
    BuildMeasurement m;
    m.portion = portion;
    m.num_tables = dataset.repo.num_tables();
    m.num_columns = dataset.repo.TotalColumns();
    int64_t serial_pairs = 0, parallel_pairs = 0;
    std::vector<double> serial_s, parallel_s;
    for (int rep = 0; rep < kBuildRepetitions; ++rep) {
      const bool serial_first = rep % 2 == 0;
      if (serial_first) {
        serial_s.push_back(TimeEngineBuild(dataset.repo, 1, &serial_pairs));
      }
      parallel_s.push_back(
          TimeEngineBuild(dataset.repo, kParallelWorkers, &parallel_pairs));
      if (!serial_first) {
        serial_s.push_back(TimeEngineBuild(dataset.repo, 1, &serial_pairs));
      }
    }
    m.serial = Summarize(serial_s);
    m.parallel = Summarize(parallel_s);
    m.joinable_pairs = serial_pairs;
    if (serial_pairs != parallel_pairs) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION at portion %.2f: serial %lld "
                   "pairs, parallel %lld pairs\n",
                   portion, static_cast<long long>(serial_pairs),
                   static_cast<long long>(parallel_pairs));
      std::exit(1);
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", m.speedup());
    build_table.AddRow({std::to_string(portion),
                        std::to_string(m.num_tables),
                        std::to_string(m.num_columns),
                        std::to_string(m.joinable_pairs),
                        format_quartiles(m.serial),
                        format_quartiles(m.parallel), speedup});
    measurements.push_back(m);
  }
  build_table.Print();
  std::printf(
      "Sanity check: parallel join-pair counts match serial (full "
      "bit-identity\nis guarded by parallel_determinism_test); speedup "
      "tracks available\nhardware threads (%u here).\n",
      std::thread::hardware_concurrency());
  WriteJson(measurements);
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
