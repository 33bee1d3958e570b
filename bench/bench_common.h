// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench binary regenerates one table or figure of the paper. They run
// argument-free (so `for b in build/bench/*; do $b; done` works) at a
// laptop-friendly default scale; set VER_BENCH_SCALE=2..4 to enlarge the
// synthetic datasets.

#ifndef VER_BENCH_BENCH_COMMON_H_
#define VER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "table/csv.h"
#include "util/timer.h"
#include "workload/chembl_gen.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/simulated_user.h"
#include "workload/wdc_gen.h"

namespace ver {
namespace bench {

inline int BenchScale() {
  const char* env = std::getenv("VER_BENCH_SCALE");
  if (env == nullptr) return 1;
  int scale = std::atoi(env);
  return scale < 1 ? 1 : scale;
}

inline ChemblSpec BenchChemblSpec() {
  int s = BenchScale();
  ChemblSpec spec;
  spec.num_compounds = 200 * s;
  spec.num_targets = 100 * s;
  spec.num_cells = 60 * s;
  spec.num_assays = 250 * s;
  spec.num_activities = 400 * s;
  spec.num_filler_tables = 10;
  return spec;
}

inline WdcSpec BenchWdcSpec() {
  int s = BenchScale();
  WdcSpec spec;
  spec.versions_per_topic = 8 * s;
  spec.num_filler_tables = 40 * s;
  return spec;
}

inline OpenDataSpec BenchOpenDataSpec(double portion, int num_queries) {
  int s = BenchScale();
  OpenDataSpec spec;
  spec.num_tables = 160 * s;
  spec.portion = portion;
  spec.num_queries = num_queries;
  return spec;
}

// ----------------------------- table printing ----------------------------

/// Fixed-width text table, printed like the paper's tables.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    PrintRule(widths);
    PrintRow(headers_, widths);
    PrintRule(widths);
    for (const auto& row : rows_) PrintRow(row, widths);
    PrintRule(widths);
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& widths) {
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  }
  static void PrintRule(const std::vector<size_t>& widths) {
    std::printf("+");
    for (size_t c = 0; c < widths.size(); ++c) {
      for (size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string FormatSeconds(double s) {
  char buf[48];
  if (s < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1000);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", s * 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s of 'Ver: View Discovery in the Wild', ICDE'23)\n",
              paper.c_str());
  std::printf("scale=%d  (set VER_BENCH_SCALE to enlarge)\n", BenchScale());
  std::printf("================================================================\n");
}

// --------------------------- pipeline shortcuts ---------------------------

/// Config with a given column-selection strategy.
inline VerConfig ConfigWithStrategy(SelectionStrategy strategy) {
  VerConfig config;
  config.selection.strategy = strategy;
  return config;
}

/// All three noise levels, in paper order.
inline const std::vector<NoiseLevel>& AllNoiseLevels() {
  static const std::vector<NoiseLevel> kLevels = {
      NoiseLevel::kZero, NoiseLevel::kMedium, NoiseLevel::kHigh};
  return kLevels;
}

// ------------------------------ Get Views Time ----------------------------

/// Wall-clock seconds of one query's view round trip through CSV files.
struct ViewIoTiming {
  double write_s = 0;  // WriteCsvFile of every view: emulation set-up
  double read_s = 0;   // ReadCsvFile of every view: the Get Views Time
};

/// The paper's prototype reads the materialized views back from disk before
/// 4C; the Fig. 3 "Get Views Time" and the Fig. 4b VD-IO bar are that read.
/// The pipeline keeps views in memory, so the benches emulate the cost
/// after Execute returns: every view is written to `dir` as CSV, then
/// every file is read back, and `dir` is removed. Exits on any IO error.
inline ViewIoTiming TimeGetViews(const std::vector<View>& views,
                                 const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ViewIoTiming timing;
  std::vector<std::string> paths;
  for (const View& view : views) {
    paths.push_back((dir / (view.table.name() + ".csv")).string());
    Status status;
    {
      ScopedTimer timer(&timing.write_s);
      status = WriteCsvFile(view.table, paths.back());
    }
    if (!status.ok()) {
      std::fprintf(stderr, "view write failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  for (const std::string& path : paths) {
    Status status;
    {
      ScopedTimer timer(&timing.read_s);
      status = ReadCsvFile(path).status();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "view read failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  std::filesystem::remove_all(dir, ec);
  return timing;
}

}  // namespace bench
}  // namespace ver

#endif  // VER_BENCH_BENCH_COMMON_H_
