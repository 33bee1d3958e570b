// Interactive discovery: the VIEW-PRESENTATION session in action.
//
// A (simulated) journalist looks for a state/newspaper view among the many
// conflicting versions of a WDC-like web-table corpus. The bandit chooses
// question interfaces, the user answers or skips, the candidate set
// shrinks, and the user even changes their mind once (answer retraction) —
// the "adapt to evolving knowledge" design principle of the paper.

#include <cstdio>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "core/ver.h"
#include "workload/noisy_query.h"
#include "workload/simulated_user.h"
#include "workload/wdc_gen.h"

using namespace ver;  // NOLINT — example brevity

namespace {

// Narrates the pipeline while the journalist waits — stage progress plus
// every candidate view the moment it survives 4C.
class ProgressObserver : public QueryObserver {
 public:
  void OnStageFinished(PipelineStage stage, double elapsed_s) override {
    std::printf("  %s finished in %.1fms\n", PipelineStageToString(stage),
                elapsed_s * 1000);
  }
  void OnViewDelivered(const View&, int delivery_index, double) override {
    if (delivery_index == 0) {
      std::printf("  first surviving view available — session could start\n");
    }
  }
};

const char* AnswerToString(AnswerType t) {
  switch (t) {
    case AnswerType::kYes:
      return "yes";
    case AnswerType::kNo:
      return "no";
    case AnswerType::kPickA:
      return "pick A";
    case AnswerType::kPickB:
      return "pick B";
    case AnswerType::kSkip:
      return "skip";
  }
  return "?";
}

}  // namespace

int main() {
  WdcSpec spec;
  GeneratedDataset dataset = GenerateWdcLike(spec);
  Ver system(&dataset.repo, VerConfig());

  const GroundTruthQuery& gt = dataset.queries[2];  // newspapers topic
  Result<ExampleQuery> query =
      MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kZero, 3, /*seed=*/31);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  ProgressObserver progress;
  DiscoveryResponse response =
      system.Execute(DiscoveryRequest::ForQuery(query.value()), &progress);
  if (!response.status.ok()) {
    std::fprintf(stderr, "%s\n", response.status.ToString().c_str());
    return 1;
  }
  QueryResult result = std::move(response.result);
  std::printf("%zu candidate views, %zu after distillation, %zu known "
              "contradictions\n",
              result.views.size(), result.distillation.surviving.size(),
              result.distillation.contradictions.size());

  // The simulated user knows the view it wants by content, so it judges
  // every candidate view, rebuilt (views 4C pruned carry no cells).
  const std::vector<View> views = MaterializeCandidates(
      dataset.repo, result.search.candidates, system.config().search,
      nullptr);
  Result<std::vector<int>> acceptable =
      GroundTruthMatches(dataset.repo, gt, views);
  if (!acceptable.ok() || acceptable->empty()) {
    std::fprintf(stderr, "no acceptable views — nothing to demo\n");
    return 1;
  }

  auto session = system.StartSession(result, query.value());
  SimulatedUserProfile profile;
  // This user is great with concrete datasets, mediocre with summaries.
  profile.competence[static_cast<int>(QuestionInterface::kDataset)] = 0.95;
  profile.competence[static_cast<int>(QuestionInterface::kAttribute)] = 0.8;
  profile.competence[static_cast<int>(QuestionInterface::kDatasetPair)] = 0.9;
  profile.competence[static_cast<int>(QuestionInterface::kSummary)] = 0.4;
  SimulatedUser user(profile, acceptable.value(), &views,
                     &result.distillation);

  for (int round = 1; round <= 12 && !session->Done(); ++round) {
    Question q = session->NextQuestion();
    Answer a = user.Respond(q);
    std::printf("\n[%02d] (%s, info gain %d)\n     %s\n     user: %s\n",
                round, QuestionInterfaceToString(q.interface_kind),
                q.info_gain, q.prompt.c_str(), AnswerToString(a.type));
    session->SubmitAnswer(q, a);
    std::printf("     -> %zu candidate views remain\n",
                session->remaining().size());

    // Round 4: the user realizes their first real answer was wrong.
    if (round == 4 && session->num_answers() > 1) {
      std::printf("     (user retracts their first answer)\n");
      session->RetractAnswer(0);
      std::printf("     -> %zu candidate views after retraction\n",
                  session->remaining().size());
    }
  }

  std::printf("\nFinal ranking (top 5):\n");
  std::vector<RankedView> ranking = session->RankedViews();
  for (size_t i = 0; i < ranking.size() && i < 5; ++i) {
    const View& v = result.views[ranking[i].view_index];
    std::printf("%zu. view_%lld utility=%.3f (%s)%s\n", i + 1,
                static_cast<long long>(v.id), ranking[i].utility,
                v.name().c_str(),
                user.Accepts(ranking[i].view_index) ? "  <- the user's view"
                                                    : "");
  }
  // The session ranks surviving views, which carry their cells.
  if (!ranking.empty()) {
    const View& top = result.views[ranking.front().view_index];
    std::printf("\nTop view:\n%s", top.table.ToString(3).c_str());
  }
  return 0;
}
