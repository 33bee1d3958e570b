// Quickstart: discover project-join views over a small pathless table
// collection with a query-by-example input.
//
// Builds a toy repository of four CSV tables (no key/foreign-key
// information!), asks Ver for views containing (city, mayor) examples, and
// prints the candidate views the system discovers plus the 4C relationships
// among them.

#include <cstdio>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "table/csv.h"

using namespace ver;  // NOLINT — example brevity

namespace {

void AddCsv(TableRepository* repo, const std::string& name,
            const std::string& csv) {
  Result<Table> table = ReadCsvString(csv, name);
  if (!table.ok()) {
    std::fprintf(stderr, "parse %s: %s\n", name.c_str(),
                 table.status().ToString().c_str());
    std::exit(1);
  }
  Result<int32_t> id = repo->AddTable(std::move(table).value());
  if (!id.ok()) {
    std::fprintf(stderr, "add %s: %s\n", name.c_str(),
                 id.status().ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // 1. A pathless table collection: four tables, no join information.
  TableRepository repo;
  AddCsv(&repo, "cities",
         "city,state,population\n"
         "Boston,Massachusetts,650000\n"
         "Chicago,Illinois,2700000\n"
         "Austin,Texas,960000\n"
         "Denver,Colorado,715000\n");
  AddCsv(&repo, "mayors",
         "city,mayor\n"
         "Boston,Michelle Wu\n"
         "Chicago,Brandon Johnson\n"
         "Austin,Kirk Watson\n"
         "Denver,Mike Johnston\n");
  AddCsv(&repo, "mayors_2019",  // an older, conflicting version
         "city,mayor\n"
         "Boston,Marty Walsh\n"
         "Chicago,Lori Lightfoot\n"
         "Austin,Steve Adler\n");
  AddCsv(&repo, "weather",
         "station,temp\n"
         "KBOS,55\n"
         "KORD,48\n");

  // 2. Build the system: this profiles every column offline and constructs
  // the discovery index (keyword search, containment sketches, join paths).
  Ver system(&repo, VerConfig());
  std::printf("Indexed %d tables, %lld joinable column pairs\n",
              repo.num_tables(),
              static_cast<long long>(
                  system.engine().num_joinable_column_pairs()));

  // 3. Query by example: "I want a view with cities and their mayors".
  ExampleQuery query = ExampleQuery::FromColumns({
      {"Boston", "Chicago"},           // examples for the first attribute
      {"Michelle Wu", "Steve Adler"},  // noisy examples for the second
  });
  QueryResult result = system.Execute(DiscoveryRequest::ForQuery(query)).result;

  std::printf("\nCandidate PJ-views (%zu):\n", result.views.size());
  for (const View& v : result.views) {
    std::printf("- %s via %s\n%s\n", v.table.name().c_str(),
                v.graph.ToString(repo).c_str(),
                v.table.ToString(4).c_str());
  }

  // 4. 4C distillation output: how the candidate views relate.
  std::printf("4C relationships:\n");
  for (const ViewEdge& e : result.distillation.edges) {
    std::printf("- view_%d %s view_%d", e.view_a,
                ViewRelationToString(e.relation), e.view_b);
    if (!e.key.empty()) {
      std::printf(" (key: %s)", e.key[0].c_str());
    }
    std::printf("\n");
  }
  for (const Contradiction& c : result.distillation.contradictions) {
    std::printf("- contradiction on %s='%s' involving %d views\n",
                c.key[0].c_str(), c.key_value_text.c_str(), c.num_views());
  }

  // 5. Automatic mode: overlap-ranked distilled views.
  std::printf("\nAutomatic ranking of distilled views:\n");
  for (const OverlapRankedView& r : result.automatic_ranking) {
    std::printf("- view_%d overlap=%d score=%.2f\n", r.view_index, r.overlap,
                r.score);
  }
  return 0;
}
