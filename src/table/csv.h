// CSV reader/writer with quoting and type inference.
//
// Repositories load from CSV directories, and the Fig. 3 / Fig. 4b benches
// write the returned views as CSV and time reading them back (the paper's
// "Get Views Time"). Ints and strings round-trip; a double is written as
// Value::ToText renders it (at most 9 fractional digits), so it can read
// back as a different value or type.

#ifndef VER_TABLE_CSV_H_
#define VER_TABLE_CSV_H_

#include <string>

#include "table/table.h"
#include "util/result.h"

namespace ver {

struct CsvOptions {
  char delimiter = ',';
  /// When true the first record provides attribute names; otherwise columns
  /// are unnamed (noisy tables may lack header information).
  bool has_header = true;
};

/// Parses CSV text into a table named `table_name`.
Result<Table> ReadCsvString(const std::string& text, std::string table_name,
                            const CsvOptions& options = CsvOptions());

/// Reads a CSV file; the table is named after the file stem.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = CsvOptions());

/// Serializes a table to CSV text (RFC-4180-style quoting).
std::string WriteCsvString(const Table& table,
                           const CsvOptions& options = CsvOptions());

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = CsvOptions());

}  // namespace ver

#endif  // VER_TABLE_CSV_H_
