// Join graphs: the combinatorial object connecting candidate tables through
// inferred inclusion dependencies (Definition 4's join paths, generalized to
// graphs over more than two tables).

#ifndef VER_DISCOVERY_JOIN_GRAPH_H_
#define VER_DISCOVERY_JOIN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/repository.h"

namespace ver {

/// One inferred joinable column pair (an inclusion-dependency edge).
struct JoinEdge {
  ColumnRef left;
  ColumnRef right;
  /// Max containment across directions — strength of the inclusion proxy.
  double containment = 0.0;
  /// How key-like the better side is (max uniqueness); PK/FK approximation.
  double key_quality = 0.0;

  /// Canonical encoding independent of left/right orientation.
  std::pair<uint64_t, uint64_t> CanonicalEncoding() const {
    uint64_t a = left.Encode(), b = right.Encode();
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
};

/// A set of join edges whose induced table graph is connected; an empty edge
/// set denotes the single-table "graph".
struct JoinGraph {
  std::vector<JoinEdge> edges;
  /// Tables touched by the graph, sorted ascending (includes intermediates).
  std::vector<int32_t> tables;
  /// Discovery-engine ranking score: key-like edges up, more hops down.
  double score = 0.0;

  int num_hops() const { return static_cast<int>(edges.size()); }

  /// Canonical signature: the canonical encodings of the edges in sorted
  /// order, each as "<a>:<b>;", or "<t>," per table for an edgeless graph.
  /// The query path orders and deduplicates graphs without building it,
  /// through CompareSignatures, SignatureKeys and SignatureHash.
  std::string Signature() const;

  /// Human-readable description using repository names.
  std::string ToString(const TableRepository& repo) const;
};

/// Sign (-1, 0 or 1) of a.Signature().compare(b.Signature()), computed
/// without building either string.
int CompareSignatures(const JoinGraph& a, const JoinGraph& b);

/// A hash that is equal for any two graphs with equal Signature().
uint64_t SignatureHash(const JoinGraph& graph);

/// Sort keys that order join graphs exactly as their Signature() strings
/// compare, built once per graph into one flat array so a sort never
/// recomputes them in its comparator.
///
/// A signature is a sequence of tokens, each a decimal number followed by
/// a terminator that is not a digit, so two signatures compare token by
/// token. Two tokens compare by their digits where those differ; when one
/// number's digits are a prefix of the other's, its terminator decides
/// against the next digit: ':' and ';' sort above every digit and ','
/// below. Each token is therefore keyed by its digits padded to 20 (the
/// most a uint64_t has) with 9s after ':' or ';' and with 0s after ',',
/// then by its digit count, which breaks the ties the padding leaves. A
/// negative table id of an edgeless graph ("-5,") sorts below every
/// digit, so the key's top bit marks non-negative numbers.
class SignatureKeys {
 public:
  /// Appends the key of `graph` as the next index.
  void Append(const JoinGraph& graph);

  /// Sign of Signature() of the graphs appended as `a` and `b`, compared.
  int Compare(size_t a, size_t b) const;

  size_t size() const { return ends_.size(); }

 private:
  // (non-negative bit and the first 18 padded digits, the last 2 padded
  // digits and the tie-break), compared lexicographically.
  using Token = std::pair<uint64_t, uint64_t>;
  static Token MakeToken(uint64_t magnitude, bool negative,
                         bool high_terminator);

  std::vector<Token> tokens_;
  std::vector<size_t> ends_;  // graph i's tokens end at ends_[i]
  std::vector<std::pair<uint64_t, uint64_t>> encodings_;  // Append scratch
};

/// Recomputes `tables` from the edge set plus mandatory tables.
void NormalizeJoinGraph(JoinGraph* graph,
                        const std::vector<int32_t>& mandatory_tables);

/// score = mean key quality - hop penalty; single-table graphs score 1.
double ScoreJoinGraph(const JoinGraph& graph);

}  // namespace ver

#endif  // VER_DISCOVERY_JOIN_GRAPH_H_
