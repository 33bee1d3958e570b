#include "table/schema.h"

#include <algorithm>

#include "util/string_util.h"

namespace ver {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (EqualsIgnoreCase(attributes_[i].name, name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string Schema::CanonicalSignature() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& a : attributes_) names.push_back(ToLower(a.name));
  std::sort(names.begin(), names.end());
  return Join(names, "\x1f");
}

void Schema::CanonicalColumnOrder(std::vector<int>* order) const {
  order->resize(attributes_.size());
  for (size_t i = 0; i < attributes_.size(); ++i) {
    (*order)[i] = static_cast<int>(i);
  }
  std::sort(order->begin(), order->end(), [this](int a, int b) {
    const int c = CompareIgnoreCase(attributes_[a].name, attributes_[b].name);
    return c != 0 ? c < 0 : a < b;
  });
}

void Schema::SaveTo(SerdeWriter* w) const {
  w->WriteU64(attributes_.size());
  for (const Attribute& a : attributes_) {
    w->WriteString(a.name);
    w->WriteU8(static_cast<uint8_t>(a.type));
  }
}

Status Schema::LoadFrom(SerdeReader* r) {
  uint64_t count;
  VER_RETURN_IF_ERROR(r->ReadU64(&count));
  std::vector<Attribute> attrs;
  attrs.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Attribute a;
    VER_RETURN_IF_ERROR(r->ReadString(&a.name));
    uint8_t type;
    VER_RETURN_IF_ERROR(r->ReadU8(&type));
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError("corrupt schema: unknown value type " +
                             std::to_string(type));
    }
    a.type = static_cast<ValueType>(type);
    attrs.push_back(std::move(a));
  }
  attributes_ = std::move(attrs);
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& a : attributes_) {
    names.push_back(a.has_name() ? a.name : "<unnamed>");
  }
  return Join(names, ", ");
}

}  // namespace ver
