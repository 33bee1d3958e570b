// Schema of a (possibly noisy) table: attributes may lack header names.

#ifndef VER_TABLE_SCHEMA_H_
#define VER_TABLE_SCHEMA_H_

#include <string>
#include <vector>

#include "table/value.h"
#include "util/serde.h"

namespace ver {

/// One column header. `name` may be empty — Definition 1 in the paper allows
/// missing header values in noisy structured data.
struct Attribute {
  std::string name;
  ValueType type = ValueType::kString;

  bool has_name() const { return !name.empty(); }
};

/// Ordered list of attributes.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  const Attribute& attribute(int i) const { return attributes_[i]; }
  Attribute& attribute(int i) { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  void AddAttribute(Attribute attr) { attributes_.push_back(std::move(attr)); }

  /// Index of the attribute with the given (case-insensitive) name, or -1.
  int IndexOf(const std::string& name) const;

  /// Order-insensitive signature over lowercased attribute names; two views
  /// fall in the same schema-based block (Alg. 3 line 2) iff signatures match.
  std::string CanonicalSignature() const;

  /// Column indices ordered by lowercased name, then by index: the order
  /// in which a view's cells enter its row hash, so views whose schemas
  /// are permutations of each other hash equal rows alike (Alg. 3 line 5).
  void CanonicalColumnOrder(std::vector<int>* order) const;

  /// Attribute names joined by ", " for display.
  std::string ToString() const;

  /// Snapshot serialization (discovery snapshots persist table schemas so
  /// a loaded index can be validated against the live repository).
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r);

 private:
  std::vector<Attribute> attributes_;
};

}  // namespace ver

#endif  // VER_TABLE_SCHEMA_H_
