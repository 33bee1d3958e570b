#include "workload/simulated_user.h"

#include <algorithm>

namespace ver {

SimulatedUser::SimulatedUser(SimulatedUserProfile profile,
                             std::vector<int> acceptable_views,
                             const std::vector<View>* views,
                             const DistillationResult* distillation)
    : profile_(profile),
      acceptable_(acceptable_views.begin(), acceptable_views.end()),
      views_(views),
      distillation_(distillation),
      rng_(profile.seed) {}

bool SimulatedUser::GroundTruthHasAttribute(
    const std::string& attribute) const {
  for (int v : acceptable_) {
    if ((*views_)[v].schema().IndexOf(attribute) >= 0) return true;
  }
  return false;
}

Answer SimulatedUser::Respond(const Question& question) {
  double competence =
      profile_.competence[static_cast<int>(question.interface_kind)];
  if (!rng_.Bernoulli(competence)) return Answer{AnswerType::kSkip};

  switch (question.interface_kind) {
    case QuestionInterface::kDataset: {
      if (question.view_index < 0) return Answer{AnswerType::kSkip};
      return Answer{Accepts(question.view_index) ? AnswerType::kYes
                                                 : AnswerType::kNo};
    }
    case QuestionInterface::kAttribute: {
      if (acceptable_.empty()) return Answer{AnswerType::kSkip};
      return Answer{GroundTruthHasAttribute(question.attribute)
                        ? AnswerType::kYes
                        : AnswerType::kNo};
    }
    case QuestionInterface::kDatasetPair: {
      // Prefer the side whose contradiction group contains an acceptable
      // view; a user who cannot tell skips.
      if (question.contradiction_index < 0 ||
          question.contradiction_index >=
              static_cast<int>(distillation_->contradictions.size())) {
        return Answer{AnswerType::kSkip};
      }
      const Contradiction& contra =
          distillation_->contradictions[question.contradiction_index];
      auto group_of = [&contra](int view) -> const std::vector<int>* {
        for (const auto& g : contra.groups) {
          if (std::find(g.begin(), g.end(), view) != g.end()) return &g;
        }
        return nullptr;
      };
      const std::vector<int>* ga = group_of(question.view_a);
      const std::vector<int>* gb = group_of(question.view_b);
      auto group_acceptable = [this](const std::vector<int>* g) {
        if (g == nullptr) return false;
        for (int v : *g) {
          if (acceptable_.count(v)) return true;
        }
        return false;
      };
      bool a_ok = group_acceptable(ga);
      bool b_ok = group_acceptable(gb);
      if (a_ok == b_ok) return Answer{AnswerType::kSkip};
      return Answer{a_ok ? AnswerType::kPickA : AnswerType::kPickB};
    }
    case QuestionInterface::kSummary: {
      bool contains = false;
      for (int v : question.summary_views) {
        if (acceptable_.count(v)) {
          contains = true;
          break;
        }
      }
      return Answer{contains ? AnswerType::kYes : AnswerType::kNo};
    }
  }
  return Answer{AnswerType::kSkip};
}

SessionOutcome DriveSession(PresentationSession* session, SimulatedUser* user,
                            int max_interactions) {
  SessionOutcome outcome;
  for (int i = 0; i < max_interactions && !session->Done(); ++i) {
    Question q = session->NextQuestion();
    Answer a = user->Respond(q);
    session->SubmitAnswer(q, a);
    ++outcome.interactions;
    // After each exchange the user re-inspects the ranking and stops when
    // their view is on top and endorsed by at least one answered question.
    if (a.type == AnswerType::kSkip) continue;
    std::vector<RankedView> ranking = session->RankedViews();
    if (!ranking.empty() && ranking.front().utility > 0 &&
        user->Accepts(ranking.front().view_index)) {
      outcome.found = true;
      break;
    }
  }
  if (!outcome.found) {
    // Session over (or budget exhausted): the user picks the top view.
    std::vector<RankedView> ranking = session->RankedViews();
    if (!ranking.empty() && user->Accepts(ranking.front().view_index)) {
      outcome.found = true;
    }
  }
  outcome.views_remaining = static_cast<int>(session->remaining().size());
  return outcome;
}

}  // namespace ver
