#include "core/presentation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "util/string_util.h"

namespace ver {

const char* QuestionInterfaceToString(QuestionInterface i) {
  switch (i) {
    case QuestionInterface::kDataset:
      return "dataset";
    case QuestionInterface::kAttribute:
      return "attribute";
    case QuestionInterface::kDatasetPair:
      return "dataset-pair";
    case QuestionInterface::kSummary:
      return "summary";
  }
  return "unknown";
}

namespace {

std::unordered_set<std::string> TokensOfQuery(const ExampleQuery& query) {
  std::unordered_set<std::string> tokens;
  for (const auto& col : query.columns) {
    for (const std::string& v : col) {
      for (std::string& t : Tokenize(v)) tokens.insert(std::move(t));
    }
  }
  for (const std::string& hint : query.attribute_hints) {
    for (std::string& t : Tokenize(hint)) tokens.insert(std::move(t));
  }
  return tokens;
}

double TokenJaccardDistance(const std::unordered_set<std::string>& a,
                            const std::unordered_set<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t inter = 0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (const std::string& t : small) inter += large.count(t);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0
                  : 1.0 - static_cast<double>(inter) /
                              static_cast<double>(uni);
}

}  // namespace

PresentationSession::PresentationSession(
    const std::vector<View>* views, const DistillationResult* distillation,
    const ExampleQuery* query, const PresentationOptions& options)
    : views_(views),
      distillation_(distillation),
      query_(query),
      options_(options),
      rng_(options.seed) {
  remaining_.insert(distillation_->surviving.begin(),
                    distillation_->surviving.end());
}

bool PresentationSession::Done() const { return remaining_.size() <= 1; }

double PresentationSession::AnswerLikelihood(
    QuestionInterface interface_kind) const {
  const ArmStats& s = arms_[static_cast<int>(interface_kind)];
  // Laplace-smoothed answer rate.
  return (s.answered + 1.0) / (s.pulls + 2.0);
}

int PresentationSession::InfoGain(QuestionInterface interface_kind) {
  Question q;
  Question* out = &q;
  return BestQuestion(interface_kind, out) ? q.info_gain : 0;
}

double PresentationSession::QuestionDistance(const Question& q) const {
  std::unordered_set<std::string> question_tokens;
  if (options_.prioritization == PrioritizationStrategy::kSchemaDistance &&
      q.view_index >= 0) {
    for (const Attribute& a :
         (*views_)[q.view_index].schema().attributes()) {
      for (std::string& t : Tokenize(a.name)) {
        question_tokens.insert(std::move(t));
      }
    }
  } else {
    for (std::string& t : Tokenize(q.attribute)) {
      question_tokens.insert(std::move(t));
    }
    for (const std::string& s : q.summary_tokens) {
      question_tokens.insert(s);
    }
    if (question_tokens.empty() && q.view_index >= 0) {
      for (const Attribute& a :
           (*views_)[q.view_index].schema().attributes()) {
        for (std::string& t : Tokenize(a.name)) {
          question_tokens.insert(std::move(t));
        }
      }
    }
  }
  return TokenJaccardDistance(question_tokens, TokensOfQuery(*query_));
}

bool PresentationSession::BestQuestion(QuestionInterface interface_kind,
                                       Question* out) {
  const int64_t remaining_count = static_cast<int64_t>(remaining_.size());
  if (remaining_count <= 1) return false;

  switch (interface_kind) {
    case QuestionInterface::kDataset: {
      // Show the best-scored not-yet-shown candidate.
      int best = -1;
      double best_score = -1e300;
      for (int v : remaining_) {
        if (shown_datasets_.count(v)) continue;
        double s = (*views_)[v].score;
        if (s > best_score || (s == best_score && v < best)) {
          best_score = s;
          best = v;
        }
      }
      if (best < 0) return false;
      out->interface_kind = interface_kind;
      out->view_index = best;
      out->info_gain = static_cast<int>(remaining_count - 1);
      out->prompt = "Does this view satisfy your requirements? [" +
                    (*views_)[best].name() + ": " +
                    (*views_)[best].schema().ToString() + "]";
      return true;
    }

    case QuestionInterface::kAttribute: {
      // Count attribute presence across remaining views.
      std::map<std::string, int> attr_count;
      for (int v : remaining_) {
        std::unordered_set<std::string> seen;
        for (const Attribute& a : (*views_)[v].schema().attributes()) {
          if (!a.has_name()) continue;
          std::string name = ToLower(a.name);
          if (seen.insert(name).second) attr_count[name] += 1;
        }
      }
      std::string best_attr;
      int best_gain = 0;
      double best_distance = 2.0;
      for (const auto& [name, count] : attr_count) {
        if (count == 0 || count == remaining_count) continue;  // not useful
        if (asked_attributes_.count(name)) continue;
        int gain =
            static_cast<int>(std::max<int64_t>(count, remaining_count - count));
        Question probe;
        probe.attribute = name;
        double distance = QuestionDistance(probe);
        if (gain > best_gain ||
            (gain == best_gain && distance < best_distance)) {
          best_gain = gain;
          best_attr = name;
          best_distance = distance;
        }
      }
      if (best_attr.empty()) return false;
      out->interface_kind = interface_kind;
      out->attribute = best_attr;
      out->info_gain = best_gain;
      out->prompt =
          "Should the output contain attribute '" + best_attr + "'?";
      return true;
    }

    case QuestionInterface::kDatasetPair: {
      // Use the most discriminative live contradiction from 4C.
      int best_idx = -1;
      int best_gain = 0;
      std::vector<std::vector<int>> best_groups;
      for (size_t ci = 0; ci < distillation_->contradictions.size(); ++ci) {
        if (used_contradictions_.count(static_cast<int>(ci))) continue;
        std::vector<std::vector<int>> groups;
        for (const auto& g : distillation_->contradictions[ci].groups) {
          std::vector<int> alive;
          for (int v : g) {
            if (remaining_.count(v)) alive.push_back(v);
          }
          if (!alive.empty()) groups.push_back(std::move(alive));
        }
        if (groups.size() < 2) continue;
        int total = 0, smallest = 1 << 30;
        for (const auto& g : groups) {
          total += static_cast<int>(g.size());
          smallest = std::min(smallest, static_cast<int>(g.size()));
        }
        int gain = total - smallest;  // best achievable prune
        if (gain > best_gain) {
          best_gain = gain;
          best_idx = static_cast<int>(ci);
          best_groups = std::move(groups);
        }
      }
      if (best_idx < 0) return false;
      // Representatives from the two largest sides.
      std::sort(best_groups.begin(), best_groups.end(),
                [](const std::vector<int>& a, const std::vector<int>& b) {
                  return a.size() > b.size();
                });
      const Contradiction& contra = distillation_->contradictions[best_idx];
      out->interface_kind = interface_kind;
      out->view_a = best_groups[0].front();
      out->view_b = best_groups[1].front();
      out->contradiction_index = best_idx;
      out->info_gain = best_gain;
      std::string key_label;
      for (size_t i = 0; i < contra.key.size(); ++i) {
        if (i) key_label += "+";
        key_label += contra.key[i];
      }
      out->prompt = "These views disagree on key '" + key_label + "' = '" +
                    contra.key_value_text +
                    "'. Which one matches your expectation?";
      return true;
    }

    case QuestionInterface::kSummary: {
      // Clusters = schema blocks over the remaining views.
      std::map<std::string, std::vector<int>> clusters;
      for (int v : remaining_) {
        clusters[(*views_)[v].schema().CanonicalSignature()].push_back(
            v);
      }
      std::string best_sig;
      int best_gain = 0;
      for (const auto& [sig, members] : clusters) {
        int64_t size = static_cast<int64_t>(members.size());
        if (size == 0 || size == remaining_count) continue;
        if (asked_summaries_.count(sig)) continue;
        int gain = static_cast<int>(
            std::max<int64_t>(size, remaining_count - size));
        if (gain > best_gain) {
          best_gain = gain;
          best_sig = sig;
        }
      }
      if (best_sig.empty()) return false;
      out->interface_kind = interface_kind;
      out->summary_views = clusters[best_sig];
      out->info_gain = best_gain;
      // Wordcloud: attribute tokens plus a few sample value tokens.
      std::map<std::string, int> token_freq;
      for (int v : out->summary_views) {
        const Table& t = (*views_)[v].table;
        for (const Attribute& a : t.schema().attributes()) {
          for (std::string& tok : Tokenize(a.name)) token_freq[tok] += 3;
        }
        int64_t sample = std::min<int64_t>(t.num_rows(), 5);
        for (int64_t r = 0; r < sample; ++r) {
          for (int c = 0; c < t.num_columns(); ++c) {
            for (std::string& tok : Tokenize(t.cell(r, c).ToText())) {
              token_freq[tok] += 1;
            }
          }
        }
      }
      std::vector<std::pair<int, std::string>> ranked;
      for (auto& [tok, freq] : token_freq) ranked.push_back({freq, tok});
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      for (size_t i = 0; i < ranked.size() && i < 12; ++i) {
        out->summary_tokens.push_back(ranked[i].second);
      }
      out->prompt =
          "Is this group of " + std::to_string(out->summary_views.size()) +
          " views relevant to your task? (wordcloud: " +
          Join(out->summary_tokens, " ") + ")";
      return true;
    }
  }
  return false;
}

std::vector<double> PresentationSession::ArmProbabilities() {
  std::vector<double> p(kNumQuestionInterfaces, 0.0);
  // Bootstrap: pure exploration until every arm has enough pulls
  // (O(log |I|) pulls give an accurate r estimate, per the paper).
  bool bootstrap = false;
  for (const ArmStats& s : arms_) {
    if (s.pulls < options_.bootstrap_pulls_per_arm) bootstrap = true;
  }
  std::vector<double> w(kNumQuestionInterfaces, 0.0);
  double total = 0.0;
  for (int i = 0; i < kNumQuestionInterfaces; ++i) {
    double chi = static_cast<double>(
        InfoGain(static_cast<QuestionInterface>(i)));
    double r = AnswerLikelihood(static_cast<QuestionInterface>(i));
    w[i] = r * chi;
    total += w[i];
  }
  for (int i = 0; i < kNumQuestionInterfaces; ++i) {
    if (bootstrap || total <= 0.0) {
      p[i] = 1.0 / kNumQuestionInterfaces;
    } else {
      p[i] = (1.0 - options_.gamma) * (w[i] / total) +
             options_.gamma / kNumQuestionInterfaces;
    }
  }
  return p;
}

double PresentationSession::ArmProbability(QuestionInterface interface_kind) {
  return ArmProbabilities()[static_cast<int>(interface_kind)];
}

Question PresentationSession::NextQuestion() {
  std::vector<double> p = ArmProbabilities();
  // Sample an arm, then fall back across arms by descending probability if
  // the sampled one has no question to ask.
  std::vector<int> order(kNumQuestionInterfaces);
  for (int i = 0; i < kNumQuestionInterfaces; ++i) order[i] = i;
  double draw = rng_.UniformDouble();
  int sampled = kNumQuestionInterfaces - 1;
  double acc = 0.0;
  for (int i = 0; i < kNumQuestionInterfaces; ++i) {
    acc += p[i];
    if (draw <= acc) {
      sampled = i;
      break;
    }
  }
  std::sort(order.begin(), order.end(), [&p](int a, int b) {
    if (p[a] != p[b]) return p[a] > p[b];
    return a < b;
  });
  // Try the sampled arm first, then the rest.
  std::vector<int> attempt{sampled};
  for (int i : order) {
    if (i != sampled) attempt.push_back(i);
  }
  Question q;
  for (int arm : attempt) {
    if (BestQuestion(static_cast<QuestionInterface>(arm), &q)) {
      ++num_asked_;
      return q;
    }
  }
  // Nothing to ask anywhere; return an empty dataset question.
  q.interface_kind = QuestionInterface::kDataset;
  q.info_gain = 0;
  ++num_asked_;
  return q;
}

void PresentationSession::ApplyAnswer(const LoggedAnswer& entry) {
  const Question& q = entry.question;
  const Answer& a = entry.answer;
  if (a.type == AnswerType::kSkip) return;
  switch (q.interface_kind) {
    case QuestionInterface::kDataset: {
      if (q.view_index < 0) return;
      if (a.type == AnswerType::kYes) {
        if (remaining_.count(q.view_index)) {
          remaining_.clear();
          remaining_.insert(q.view_index);
        }
      } else if (a.type == AnswerType::kNo) {
        remaining_.erase(q.view_index);
      }
      return;
    }
    case QuestionInterface::kAttribute: {
      std::vector<int> to_erase;
      for (int v : remaining_) {
        bool has = (*views_)[v].schema().IndexOf(q.attribute) >= 0;
        bool want = a.type == AnswerType::kYes;
        if (has != want) to_erase.push_back(v);
      }
      // Never erase everything: an answer inconsistent with every candidate
      // keeps the set intact (the ranking still records the signal).
      if (to_erase.size() < remaining_.size()) {
        for (int v : to_erase) remaining_.erase(v);
      }
      return;
    }
    case QuestionInterface::kDatasetPair: {
      if (q.contradiction_index < 0 ||
          q.contradiction_index >=
              static_cast<int>(distillation_->contradictions.size())) {
        return;
      }
      const Contradiction& contra =
          distillation_->contradictions[q.contradiction_index];
      int chosen = a.type == AnswerType::kPickA ? q.view_a : q.view_b;
      // Keep the side containing the chosen view; prune other sides.
      const std::vector<int>* keep_group = nullptr;
      for (const auto& g : contra.groups) {
        if (std::find(g.begin(), g.end(), chosen) != g.end()) {
          keep_group = &g;
          break;
        }
      }
      if (keep_group == nullptr) return;
      for (const auto& g : contra.groups) {
        if (&g == keep_group) continue;
        for (int v : g) {
          if (std::find(keep_group->begin(), keep_group->end(), v) ==
              keep_group->end()) {
            remaining_.erase(v);
          }
        }
      }
      return;
    }
    case QuestionInterface::kSummary: {
      std::unordered_set<int> cluster(q.summary_views.begin(),
                                      q.summary_views.end());
      std::vector<int> to_erase;
      for (int v : remaining_) {
        bool in_cluster = cluster.count(v) > 0;
        bool keep = (a.type == AnswerType::kYes) == in_cluster;
        if (!keep) to_erase.push_back(v);
      }
      if (to_erase.size() < remaining_.size()) {
        for (int v : to_erase) remaining_.erase(v);
      }
      return;
    }
  }
}

void PresentationSession::SubmitAnswer(const Question& question,
                                       const Answer& answer) {
  ArmStats& stats = arms_[static_cast<int>(question.interface_kind)];
  stats.pulls += 1;
  if (answer.type == AnswerType::kSkip) return;
  stats.answered += 1;

  // Mark the question consumed so it is not asked again.
  switch (question.interface_kind) {
    case QuestionInterface::kDataset:
      if (question.view_index >= 0) shown_datasets_.insert(question.view_index);
      break;
    case QuestionInterface::kAttribute:
      asked_attributes_.insert(question.attribute);
      break;
    case QuestionInterface::kDatasetPair:
      if (question.contradiction_index >= 0) {
        used_contradictions_.insert(question.contradiction_index);
      }
      break;
    case QuestionInterface::kSummary: {
      if (!question.summary_views.empty()) {
        asked_summaries_.insert((*views_)[question.summary_views.front()]
                                    .schema()
                                    .CanonicalSignature());
      }
      break;
    }
  }

  answer_log_.push_back(LoggedAnswer{question, answer});
  ApplyAnswer(answer_log_.back());
}

void PresentationSession::ReplayLog() {
  remaining_.clear();
  remaining_.insert(distillation_->surviving.begin(),
                    distillation_->surviving.end());
  for (const LoggedAnswer& entry : answer_log_) ApplyAnswer(entry);
}

void PresentationSession::RetractAnswer(int answer_index) {
  if (answer_index < 0 ||
      answer_index >= static_cast<int>(answer_log_.size())) {
    return;
  }
  answer_log_.erase(answer_log_.begin() + answer_index);
  ReplayLog();
}

std::vector<RankedView> PresentationSession::RankedViews() const {
  std::vector<RankedView> ranked;
  ranked.reserve(remaining_.size());
  for (int v : remaining_) {
    double utility = 0.0;
    for (const LoggedAnswer& entry : answer_log_) {
      const Question& q = entry.question;
      const Answer& a = entry.answer;
      if (a.type == AnswerType::kSkip) continue;
      // s in {-1, 0, 1}: does the answer endorse or reject this view?
      int s = 0;
      // Views "captured" by the question (for P(D satisfies | Q)).
      int captured = 1;
      switch (q.interface_kind) {
        case QuestionInterface::kDataset: {
          captured = 1;
          if (v == q.view_index) s = (a.type == AnswerType::kYes) ? 1 : -1;
          break;
        }
        case QuestionInterface::kAttribute: {
          bool has = (*views_)[v].schema().IndexOf(q.attribute) >= 0;
          bool want = a.type == AnswerType::kYes;
          s = (has == want) ? 1 : -1;
          int count = 0;
          for (int u : remaining_) {
            if (((*views_)[u].schema().IndexOf(q.attribute) >= 0) ==
                want) {
              ++count;
            }
          }
          captured = std::max(count, 1);
          break;
        }
        case QuestionInterface::kDatasetPair: {
          if (q.contradiction_index < 0) break;
          const Contradiction& contra =
              distillation_->contradictions[q.contradiction_index];
          int chosen = a.type == AnswerType::kPickA ? q.view_a : q.view_b;
          const std::vector<int>* keep_group = nullptr;
          for (const auto& g : contra.groups) {
            if (std::find(g.begin(), g.end(), chosen) != g.end()) {
              keep_group = &g;
              break;
            }
          }
          if (keep_group == nullptr) break;
          bool in_keep = std::find(keep_group->begin(), keep_group->end(),
                                   v) != keep_group->end();
          bool involved = false;
          for (const auto& g : contra.groups) {
            if (std::find(g.begin(), g.end(), v) != g.end()) involved = true;
          }
          if (in_keep) {
            s = 1;
          } else if (involved) {
            s = -1;
          }
          captured = std::max<int>(1, static_cast<int>(keep_group->size()));
          break;
        }
        case QuestionInterface::kSummary: {
          bool in_cluster =
              std::find(q.summary_views.begin(), q.summary_views.end(), v) !=
              q.summary_views.end();
          bool want = a.type == AnswerType::kYes;
          s = (in_cluster == want) ? 1 : -1;
          captured = std::max<int>(
              1, want ? static_cast<int>(q.summary_views.size())
                      : static_cast<int>(remaining_.size()));
          break;
        }
      }
      double p_sat = 1.0 / static_cast<double>(captured);
      double p_answer = AnswerLikelihood(q.interface_kind);
      utility += static_cast<double>(s) * p_sat * p_answer;
    }
    ranked.push_back(RankedView{v, utility});
  }
  std::sort(ranked.begin(), ranked.end(),
            [this](const RankedView& a, const RankedView& b) {
              if (a.utility != b.utility) return a.utility > b.utility;
              double sa = (*views_)[a.view_index].score;
              double sb = (*views_)[b.view_index].score;
              if (sa != sb) return sa > sb;
              return a.view_index < b.view_index;
            });
  return ranked;
}

}  // namespace ver
