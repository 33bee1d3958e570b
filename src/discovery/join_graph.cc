#include "discovery/join_graph.h"

#include <algorithm>
#include <array>

#include "util/hash.h"

namespace ver {

namespace {

// 10^k for k = 0..19; 10^19 is the largest power of ten in a uint64_t.
constexpr std::array<uint64_t, 20> Pow10Table() {
  std::array<uint64_t, 20> table{};
  uint64_t p = 1;
  for (uint64_t& t : table) {
    t = p;
    p *= 10;  // wraps, unused, after the last entry
  }
  return table;
}
constexpr std::array<uint64_t, 20> kPow10 = Pow10Table();

}  // namespace

std::string JoinGraph::Signature() const {
  std::vector<std::pair<uint64_t, uint64_t>> encs;
  encs.reserve(edges.size());
  for (const JoinEdge& e : edges) encs.push_back(e.CanonicalEncoding());
  std::sort(encs.begin(), encs.end());
  std::string sig;
  sig.reserve(encs.size() * 16 + tables.size() * 4);
  for (const auto& [a, b] : encs) {
    sig += std::to_string(a);
    sig.push_back(':');
    sig += std::to_string(b);
    sig.push_back(';');
  }
  // Single-table graphs have no edges; distinguish them by table id.
  if (encs.empty()) {
    for (int32_t t : tables) {
      sig += std::to_string(t);
      sig.push_back(',');
    }
  }
  return sig;
}

SignatureKeys::Token SignatureKeys::MakeToken(uint64_t magnitude,
                                              bool negative,
                                              bool high_terminator) {
  int digits = 1;
  while (digits < 20 && magnitude >= kPow10[digits]) ++digits;
  // The digits padded to 20 with the terminator's pad digit, split into
  // the first 18 (< 10^18 < 2^60) and the last 2.
  uint64_t first18 = 0, last2 = 0;
  if (digits <= 18) {
    const uint64_t scale = kPow10[18 - digits];
    first18 = magnitude * scale + (high_terminator ? scale - 1 : 0);
    last2 = high_terminator ? 99 : 0;
  } else if (digits == 19) {
    first18 = magnitude / 10;
    last2 = magnitude % 10 * 10 + (high_terminator ? 9 : 0);
  } else {
    first18 = magnitude / 100;
    last2 = magnitude % 100;
  }
  // Equal padded digits: the shorter number's terminator meets a digit of
  // the longer one, so a shorter number before ',' sorts first and one
  // before ':' or ';' sorts last. Equal numbers order ',' before ':' and
  // ';', which never meet each other at one token position.
  const uint64_t tie_break =
      static_cast<uint64_t>(high_terminator ? 41 - digits : digits);
  return Token{(negative ? 0 : uint64_t{1} << 63) | first18,
               last2 * 64 + tie_break};
}

void SignatureKeys::Append(const JoinGraph& graph) {
  if (graph.edges.empty()) {
    for (int32_t t : graph.tables) {
      const int64_t id = t;
      tokens_.push_back(MakeToken(static_cast<uint64_t>(id < 0 ? -id : id),
                                  id < 0, /*high_terminator=*/false));
    }
  } else {
    encodings_.clear();
    for (const JoinEdge& e : graph.edges) {
      encodings_.push_back(e.CanonicalEncoding());
    }
    std::sort(encodings_.begin(), encodings_.end());
    for (const auto& [a, b] : encodings_) {
      tokens_.push_back(MakeToken(a, false, /*high_terminator=*/true));
      tokens_.push_back(MakeToken(b, false, /*high_terminator=*/true));
    }
  }
  ends_.push_back(tokens_.size());
}

int SignatureKeys::Compare(size_t a, size_t b) const {
  const Token* x = tokens_.data() + (a == 0 ? 0 : ends_[a - 1]);
  const Token* x_end = tokens_.data() + ends_[a];
  const Token* y = tokens_.data() + (b == 0 ? 0 : ends_[b - 1]);
  const Token* y_end = tokens_.data() + ends_[b];
  for (; x != x_end && y != y_end; ++x, ++y) {
    if (*x != *y) return *x < *y ? -1 : 1;
  }
  // A signature that is a proper prefix of the other sorts first.
  return (x != x_end) - (y != y_end);
}

int CompareSignatures(const JoinGraph& a, const JoinGraph& b) {
  SignatureKeys keys;
  keys.Append(a);
  keys.Append(b);
  return keys.Compare(0, 1);
}

uint64_t SignatureHash(const JoinGraph& graph) {
  if (graph.edges.empty()) {
    uint64_t h = 0;
    for (int32_t t : graph.tables) {
      h = HashCombine(h, static_cast<uint32_t>(t));
    }
    return h;
  }
  // Signature() sorts the edges, so sum per-edge hashes: the sum does not
  // depend on edge order or orientation.
  uint64_t sum = 0;
  for (const JoinEdge& e : graph.edges) {
    auto [a, b] = e.CanonicalEncoding();
    sum += Mix64(HashCombine(Mix64(a), b));
  }
  return HashCombine(sum, graph.edges.size());
}

std::string JoinGraph::ToString(const TableRepository& repo) const {
  if (edges.empty()) {
    std::string out = "single-table{";
    for (size_t i = 0; i < tables.size(); ++i) {
      if (i) out += ",";
      out += repo.table(tables[i]).name();
    }
    return out + "}";
  }
  std::string out = "join{";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i) out += ", ";
    out += repo.ColumnDisplayName(edges[i].left);
    out += " = ";
    out += repo.ColumnDisplayName(edges[i].right);
  }
  return out + "}";
}

void NormalizeJoinGraph(JoinGraph* graph,
                        const std::vector<int32_t>& mandatory_tables) {
  std::vector<int32_t> tables = mandatory_tables;
  for (const JoinEdge& e : graph->edges) {
    tables.push_back(e.left.table_id);
    tables.push_back(e.right.table_id);
  }
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  graph->tables = std::move(tables);
  graph->score = ScoreJoinGraph(*graph);
}

double ScoreJoinGraph(const JoinGraph& graph) {
  if (graph.edges.empty()) return 1.0;
  double quality_sum = 0.0;
  for (const JoinEdge& e : graph.edges) quality_sum += e.key_quality;
  double mean_quality = quality_sum / static_cast<double>(graph.edges.size());
  // Smaller graphs rank higher (paper, Appendix C): light per-hop penalty.
  return mean_quality - 0.05 * static_cast<double>(graph.edges.size());
}

}  // namespace ver
