// Ver::Execute — the one online-pipeline driver (Algorithm 1).
//
// Callers and VerServer workers alike enter the pipeline here. It validates
// the request, merges its overrides over the base VerConfig, then runs
// COLUMN-SELECTION -> JOIN-GRAPH-SEARCH -> MATERIALIZER ->
// VIEW-DISTILLATION -> ranking with deadline/cancellation checks at stage
// boundaries, streaming typed events to the observer.
//
// Two materialization modes share the same CandidateMaterializer (so their
// view sequences are bit-identical prefixes of each other):
//
//  * batch (stop_after <= 0): materialize all top-k ranked candidates, then
//    distill once.
//  * streaming (stop_after > 0): materialize ranked candidates one at a
//    time, re-evaluating distillation after each kept view and delivering
//    every newly-surviving view to the observer immediately; stop as soon
//    as stop_after views survive. Deadline/cancellation are additionally
//    checked between candidates, so long tails react faster than the
//    stage-boundary granularity of the batch mode.
//
// Late materialization: the CandidateMaterializer joins and dedups each
// candidate and keeps its row ids and row-hash run, and 4C's C1/C2 run on
// the runs. Only a view that is delivered is gathered into a Table: the
// survivors in batch mode, each view when it is first delivered in
// streaming mode, every view when distillation is off. The gather runs
// inside 4C (DistillRowSets asks for the survivors' tables before C3/C4)
// while the CandidateMaterializer still holds its table pins; its time
// counts toward materialize_s, not four_c_s.

#include <algorithm>
#include <utility>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "util/check.h"
#include "util/timer.h"

namespace ver {

const char* PipelineStageToString(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kColumnSelection:
      return "COLUMN-SELECTION";
    case PipelineStage::kJoinGraphSearch:
      return "JOIN-GRAPH-SEARCH";
    case PipelineStage::kMaterialization:
      return "MATERIALIZER";
    case PipelineStage::kVdIo:
      return "VD-IO";
    case PipelineStage::kDistillation:
      return "VIEW-DISTILLATION";
    case PipelineStage::kRanking:
      return "ranking";
  }
  return "?";
}

DiscoveryResponse Ver::Execute(const DiscoveryRequest& request,
                               QueryObserver* observer) const {
  WallTimer total_timer;
  DiscoveryResponse response;
  QueryResult& result = response.result;

  // Last event + total accounting on every exit path.
  auto done = [&]() -> DiscoveryResponse&& {
    response.total_s = total_timer.ElapsedSeconds();
    if (observer != nullptr) observer->OnFinished(response.status);
    return std::move(response);
  };
  // Non-OK responses carry no partial pipeline data.
  auto fail = [&](Status status) -> DiscoveryResponse&& {
    response.status = std::move(status);
    result = QueryResult();
    return done();
  };
  // Stage bracket: events + wall-clock accounting into a timing field.
  auto run_stage = [&](PipelineStage stage, double* sink, auto&& body) {
    if (observer != nullptr) observer->OnStageStarted(stage);
    WallTimer timer;
    body();
    double elapsed = timer.ElapsedSeconds();
    *sink += elapsed;
    if (observer != nullptr) observer->OnStageFinished(stage, elapsed);
  };

  Status valid = request.Validate();
  if (!valid.ok()) return fail(std::move(valid));

  VerConfig merged = request.overrides.MergedOver(config_);

  const auto deadline =
      std::min(request.deadline, DeadlineAfter(request.deadline_s));
  auto check = [&](const char* next_stage) {
    return CheckDeadlineAndCancel(deadline, request.cancel, next_stage);
  };

  // ---------------------------------------------------------- COLUMN-SELECTION
  if (request.from_candidates) {
    result.selection = request.candidates;
  } else {
    Status st = check("COLUMN-SELECTION");
    if (!st.ok()) return fail(std::move(st));
    run_stage(PipelineStage::kColumnSelection,
              &result.timing.column_selection_s, [&] {
                result.selection = SelectColumnsForQuery(
                    *engine_, request.query, merged.selection);
              });
  }

  // ---------------------------------------------------------- JOIN-GRAPH-SEARCH
  const JoinGraphSearchOptions& search_options = merged.search;
  {
    Status st = check("JOIN-GRAPH-SEARCH");
    if (!st.ok()) return fail(std::move(st));
  }
  run_stage(PipelineStage::kJoinGraphSearch,
            &result.timing.join_graph_search_s, [&] {
              result.search =
                  SearchJoinGraphs(*engine_, result.selection, search_options);
            });

  // ---------------------------------------------- MATERIALIZER .. DISTILLATION
  CandidateMaterializer materialized(repo_, search_options.materialize);
  // Gathers view i's cells; the time lands in materialize_s.
  auto gather = [&](int i) -> const Table& {
    ScopedTimer timer(&result.timing.materialize_s);
    return materialized.Gather(i);
  };
  // 4C over the materializer's runs, gathering the survivors. Returns the
  // stage's own seconds: its wall clock minus the gather.
  std::vector<RowSetRun> runs;
  auto distill = [&] {
    const double materialize_before = result.timing.materialize_s;
    WallTimer timer;
    runs.resize(materialized.views().size());
    for (size_t i = 0; i < runs.size(); ++i) {
      runs[i] = materialized.run(static_cast<int>(i));
    }
    result.distillation = DistillRowSets(materialized.views(), runs, gather,
                                         merged.distillation);
    return timer.ElapsedSeconds() -
           (result.timing.materialize_s - materialize_before);
  };
  // Tracks which view indices already produced an OnViewDelivered event.
  std::vector<char> delivered;
  auto deliver_surviving = [&](const std::vector<int>& surviving) {
    const std::vector<View>& views = materialized.views();
    delivered.resize(views.size(), 0);
    for (int idx : surviving) {
      if (delivered[static_cast<size_t>(idx)]) continue;
      delivered[static_cast<size_t>(idx)] = 1;
      VER_DCHECK(views[static_cast<size_t>(idx)].has_columns());
      if (observer != nullptr) {
        observer->OnViewDelivered(views[static_cast<size_t>(idx)],
                                  response.views_delivered,
                                  total_timer.ElapsedSeconds());
      }
      ++response.views_delivered;
    }
  };
  auto synthesize_no_distillation = [&](size_t num_views) {
    // Without distillation every view survives.
    result.distillation = DistillationResult();
    for (size_t i = 0; i < num_views; ++i) {
      result.distillation.surviving.push_back(static_cast<int>(i));
    }
    result.distillation.count_after_compatible =
        static_cast<int64_t>(num_views);
    result.distillation.count_after_contained =
        static_cast<int64_t>(num_views);
  };
  int64_t limit =
      search_options.expected_views <= 0
          ? static_cast<int64_t>(result.search.candidates.size())
          : std::min<int64_t>(search_options.expected_views,
                              result.search.candidates.size());

  if (request.stop_after <= 0) {
    // ----- Batch mode: one stage after the other.
    {
      Status st = check("MATERIALIZER");
      if (!st.ok()) return fail(std::move(st));
    }
    run_stage(PipelineStage::kMaterialization, &result.timing.materialize_s,
              [&] {
                for (int64_t i = 0; i < limit; ++i) {
                  materialized.Materialize(result.search.candidates[i]);
                }
                if (merged.run_distillation) return;
                // Every view is delivered.
                for (size_t i = 0; i < materialized.views().size(); ++i) {
                  materialized.Gather(static_cast<int>(i));
                }
              });
    result.search.num_materialization_failures += materialized.num_failures();

    {
      Status st = check("VIEW-DISTILLATION");
      if (!st.ok()) return fail(std::move(st));
    }
    if (merged.run_distillation) {
      // The stage bracket by hand: its elapsed time leaves out the gather.
      if (observer != nullptr) {
        observer->OnStageStarted(PipelineStage::kDistillation);
      }
      const double elapsed = distill();
      result.timing.four_c_s += elapsed;
      if (observer != nullptr) {
        observer->OnStageFinished(PipelineStage::kDistillation, elapsed);
      }
    } else {
      synthesize_no_distillation(materialized.views().size());
    }
    deliver_surviving(result.distillation.surviving);
  } else {
    // ----- Streaming mode: one candidate at a time, stop at stop_after
    // surviving views. Candidates are processed strictly in rank order and
    // CandidateMaterializer is the same machinery batch mode uses, so the
    // views produced here are a prefix of the batch run's view sequence.
    // Stage events: one kMaterialization bracket spans the interleaved
    // loop; distillation costs still land in their timing field. A view
    // pruned on arrival is never delivered later: C1 keeps the lowest
    // index of equal views and C2 keeps maximal sets, and subset is
    // transitive.
    if (observer != nullptr) {
      observer->OnStageStarted(PipelineStage::kMaterialization);
    }
    WallTimer loop_timer;
    // Every started stage finishes, even when a deadline/cancellation
    // aborts the loop — observers may pair the events.
    auto close_stage = [&] {
      if (observer != nullptr) {
        observer->OnStageFinished(PipelineStage::kMaterialization,
                                  loop_timer.ElapsedSeconds());
      }
    };
    for (int64_t i = 0; i < limit; ++i) {
      Status st = check("MATERIALIZER");
      if (!st.ok()) {
        close_stage();
        return fail(std::move(st));
      }
      bool kept;
      {
        ScopedTimer timer(&result.timing.materialize_s);
        kept = materialized.Materialize(result.search.candidates[i]);
      }
      if (!kept) continue;
      const size_t num_views = materialized.views().size();
      if (merged.run_distillation) {
        result.timing.four_c_s += distill();
      } else {
        gather(static_cast<int>(num_views - 1));
        synthesize_no_distillation(num_views);
      }
      deliver_surviving(result.distillation.surviving);
      if (static_cast<int>(result.distillation.surviving.size()) >=
          request.stop_after) {
        response.early_terminated = i + 1 < limit;
        break;
      }
    }
    // With distillation off the loop synthesized the result after every
    // kept view (and the zero-view case equals a default DistillationResult),
    // so the distillation field is already consistent here either way.
    result.search.num_materialization_failures += materialized.num_failures();
    close_stage();
  }
  result.views = materialized.TakeViews();

  // ------------------------------------------------------------------ ranking
  // Automatic mode (Algorithm 1 line 13): overlap-based ranking of the
  // surviving views.
  {
    Status st = check("ranking");
    if (!st.ok()) return fail(std::move(st));
  }
  // Ranking is not a Fig. 4b component, so its cost is reported through the
  // stage event only, never added to PipelineTiming.
  double ranking_s = 0;
  run_stage(PipelineStage::kRanking, &ranking_s, [&] {
    result.automatic_ranking = RankViewsByOverlap(
        result.views, result.distillation.surviving, request.query);
  });

  return done();
}

}  // namespace ver
