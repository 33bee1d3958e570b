// Ver::Execute — the one real online-pipeline driver (Algorithm 1).
//
// Every public entry point (the legacy RunQuery / RunWithCandidates
// overloads, VerServer workers) funnels into this function. It validates
// the request, merges its overrides over the base VerConfig, then runs
// COLUMN-SELECTION -> JOIN-GRAPH-SEARCH -> MATERIALIZER -> VD-IO ->
// VIEW-DISTILLATION -> ranking with deadline/cancellation checks at stage
// boundaries, streaming typed events to the observer.
//
// Two materialization modes share the same CandidateMaterializer (so their
// view sequences are bit-identical prefixes of each other):
//
//  * batch (stop_after <= 0): materialize all top-k ranked candidates, then
//    distill once — exactly the legacy pipeline.
//  * streaming (stop_after > 0): materialize ranked candidates one at a
//    time, re-evaluating distillation after each kept view and delivering
//    every newly-surviving view to the observer immediately; stop as soon
//    as stop_after views survive. Deadline/cancellation are additionally
//    checked between candidates, so long tails react faster than the
//    stage-boundary granularity of the batch mode.

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "table/csv.h"
#include "util/timer.h"

namespace ver {

namespace {

// Reads one spilled view back from disk (the VD-IO / "Get Views Time" cost).
void ReloadSpilledView(View* view) {
  if (view == nullptr || view->spill_path.empty()) return;
  Result<Table> reloaded = ReadCsvFile(view->spill_path);
  if (reloaded.ok()) {
    std::string name = view->table.name();
    view->table = std::move(reloaded).value();
    view->table.set_name(std::move(name));
  }
}

}  // namespace

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
  return ExecuteInternal(request, observer, nullptr);
}

DiscoveryResponse Ver::Execute(DiscoveryRequest&& request,
                               QueryObserver* observer) const {
  return ExecuteInternal(request, observer, &request.candidates);
}

DiscoveryResponse Ver::ExecuteInternal(
    const DiscoveryRequest& request, QueryObserver* observer,
    std::vector<ColumnSelectionResult>* stolen_candidates) const {
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

  QueryControl control;
  control.deadline = request.deadline;
  control.cancel = request.cancel;
  control.deadline =
      std::min(control.deadline, DeadlineAfter(request.deadline_s));

  // ---------------------------------------------------------- COLUMN-SELECTION
  if (request.from_candidates) {
    result.selection = stolen_candidates != nullptr
                           ? std::move(*stolen_candidates)
                           : request.candidates;
  } else {
    Status st = control.Check("COLUMN-SELECTION");
    if (!st.ok()) return fail(std::move(st));
    run_stage(PipelineStage::kColumnSelection,
              &result.timing.column_selection_s, [&] {
                result.selection = SelectColumnsForQuery(
                    *engine_, request.query, merged.selection);
              });
  }

  // ---------------------------------------------------------- JOIN-GRAPH-SEARCH
  JoinGraphSearchOptions search_options = merged.search;
  const bool spilling = !merged.spill_dir.empty();
  if (spilling) {
    // Each query spills into its own subdirectory, so concurrent queries
    // never read or overwrite each other's spill files.
    search_options.materialize.spill_dir = NextSpillDir();
  }

  {
    Status st = control.Check("JOIN-GRAPH-SEARCH");
    if (!st.ok()) return fail(std::move(st));
  }
  run_stage(PipelineStage::kJoinGraphSearch,
            &result.timing.join_graph_search_s, [&] {
              result.search =
                  SearchJoinGraphs(*engine_, result.selection, search_options);
            });

  // ---------------------------------------------- MATERIALIZER .. DISTILLATION
  // Tracks which view indices already produced an OnViewDelivered event.
  std::vector<char> delivered;
  auto deliver_surviving = [&](const std::vector<View>& views,
                               const std::vector<int>& surviving) {
    delivered.resize(views.size(), 0);
    for (int idx : surviving) {
      if (delivered[static_cast<size_t>(idx)]) continue;
      delivered[static_cast<size_t>(idx)] = 1;
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
  auto cleanup_spill = [&]() {
    if (!spilling || !merged.cleanup_spilled_views) return;
    // Serving mode: drop this query's spill subdirectory now that the views
    // are back in memory, so disk use stays bounded under sustained traffic
    // (untimed — cleanup is not a paper cost).
    std::error_code ec;
    std::filesystem::remove_all(search_options.materialize.spill_dir, ec);
    for (View& v : result.views) v.spill_path.clear();
  };

  if (request.stop_after <= 0) {
    // ----- Batch mode: the legacy pipeline, one stage after the other.
    {
      Status st = control.Check("MATERIALIZER");
      if (!st.ok()) return fail(std::move(st));
    }
    run_stage(PipelineStage::kMaterialization, &result.timing.materialize_s,
              [&] {
                result.views = MaterializeCandidates(
                    *repo_, result.search.candidates, search_options,
                    &result.search.num_materialization_failures);
              });

    if (spilling) {
      // Read the spilled views back from disk — distillation's input IO
      // cost ("Get Views Time" in Fig. 3 / VD-IO in Fig. 4b).
      Status st = control.Check("VD-IO");
      if (!st.ok()) return fail(std::move(st));
      run_stage(PipelineStage::kVdIo, &result.timing.vd_io_s, [&] {
        for (View& v : result.views) ReloadSpilledView(&v);
      });
      cleanup_spill();
    }

    {
      Status st = control.Check("VIEW-DISTILLATION");
      if (!st.ok()) return fail(std::move(st));
    }
    if (merged.run_distillation) {
      run_stage(PipelineStage::kDistillation, &result.timing.four_c_s, [&] {
        result.distillation = DistillViews(result.views, merged.distillation);
      });
    } else {
      synthesize_no_distillation(result.views.size());
    }
    deliver_surviving(result.views, result.distillation.surviving);
  } else {
    // ----- Streaming mode: one candidate at a time, stop at stop_after
    // surviving views. Candidates are processed strictly in rank order and
    // CandidateMaterializer is the same machinery batch mode uses, so the
    // views produced here are a prefix of the batch run's view sequence.
    // Stage events: one kMaterialization bracket spans the interleaved
    // loop; VD-IO and distillation costs still land in their timing fields.
    int64_t limit =
        search_options.expected_views <= 0
            ? static_cast<int64_t>(result.search.candidates.size())
            : std::min<int64_t>(search_options.expected_views,
                                result.search.candidates.size());
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
    CandidateMaterializer incremental(repo_, search_options.materialize);
    for (int64_t i = 0; i < limit; ++i) {
      Status st = control.Check("MATERIALIZER");
      if (!st.ok()) {
        close_stage();
        return fail(std::move(st));
      }
      bool kept;
      {
        ScopedTimer timer(&result.timing.materialize_s);
        kept = incremental.Materialize(result.search.candidates[i]);
      }
      if (!kept) continue;
      if (spilling) {
        // VD-IO per view: distillation below must read the reloaded data,
        // exactly as the batch mode's bulk reload stage guarantees.
        ScopedTimer timer(&result.timing.vd_io_s);
        ReloadSpilledView(incremental.mutable_last_view());
      }
      std::vector<int> surviving_now;
      if (merged.run_distillation) {
        ScopedTimer timer(&result.timing.four_c_s);
        result.distillation =
            DistillViews(incremental.views(), merged.distillation);
        surviving_now = result.distillation.surviving;
      } else {
        synthesize_no_distillation(incremental.views().size());
        surviving_now = result.distillation.surviving;
      }
      deliver_surviving(incremental.views(), surviving_now);
      if (static_cast<int>(surviving_now.size()) >= request.stop_after) {
        response.early_terminated = i + 1 < limit;
        break;
      }
    }
    // With distillation off the loop synthesized the result after every
    // kept view (and the zero-view case equals a default DistillationResult),
    // so the distillation field is already consistent here either way.
    result.search.num_materialization_failures += incremental.num_failures();
    result.views = incremental.TakeViews();
    cleanup_spill();
    close_stage();
  }

  // ------------------------------------------------------------------ ranking
  // Automatic mode (Algorithm 1 line 13): overlap-based ranking of the
  // surviving views.
  {
    Status st = control.Check("ranking");
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
