// PagedView<T> / PagedBytes: array storage for snapshot-backed and
// block-backed structures, in one of three states.
//
//   owned     a std::vector<T> (or std::string) the view owns and behaves
//             exactly like — the build path and the resident load path.
//   mapped    a borrowed typed extent of an mmapped snapshot: a pointer
//             into the map plus the (space, offset) needed to pin its
//             frames in the BufferPool. paged() is true only here.
//   borrowed  a borrowed extent of memory the view's owner keeps alive
//             (a gathered column's one storage block). Never pinned, and
//             paged() is false: paged() means "borrows snapshot memory".
//
// Readers use the same data()/size()/operator[] surface in every state, so
// query code is mode-blind; only mutation (mut()) insists on the owned
// state. Copying a view always yields an owned copy; moving one keeps its
// borrow (the borrowed memory does not move).
//
// A mapped view is valid only while the SnapshotMap that backs it lives
// (the engine's PagerRuntime guarantees that). Pinning is an accounting
// contract, not a lifetime one — an unpinned read of a mapped view still
// returns correct bytes (the page refaults from the file); it just escapes
// the pool's residency budget.

#ifndef VER_PAGER_PAGED_VIEW_H_
#define VER_PAGER_PAGED_VIEW_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "pager/buffer_pool.h"
#include "util/check.h"

namespace ver {

/// How a loader reaches the pool while deserializing: the pool, the space
/// id of the snapshot being loaded, and the mapping base from which extent
/// offsets are computed. A null binding (or null pool) means "load
/// resident".
struct PagerBinding {
  BufferPool* pool = nullptr;
  uint32_t space = 0;
  const char* space_base = nullptr;
};

template <typename T>
class PagedView {
  static_assert(std::is_trivially_copyable_v<T>,
                "PagedView elements are reinterpreted from mapped bytes");

 public:
  PagedView() = default;

  // Copying materializes an owned copy — borrows are tied to one snapshot
  // map or one owner's block and must not silently multiply across objects.
  PagedView(const PagedView& o) { *this = o; }
  PagedView& operator=(const PagedView& o) {
    if (this != &o) {
      vec_.assign(o.data(), o.data() + o.size());
      DropBinding();
    }
    return *this;
  }
  PagedView(PagedView&& o) noexcept { *this = std::move(o); }
  PagedView& operator=(PagedView&& o) noexcept {
    if (this != &o) {
      vec_ = std::move(o.vec_);
      extent_ = o.extent_;
      count_ = o.count_;
      space_ = o.space_;
      mapped_ = o.mapped_;
      offset_ = o.offset_;
      o.Reset();
    }
    return *this;
  }
  PagedView& operator=(std::vector<T>&& v) {
    vec_ = std::move(v);
    DropBinding();
    return *this;
  }

  /// True when the view borrows a mapped snapshot extent.
  bool paged() const { return extent_ != nullptr && mapped_; }

  const T* data() const { return extent_ != nullptr ? extent_ : vec_.data(); }
  uint64_t size() const { return extent_ != nullptr ? count_ : vec_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](uint64_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  const T& front() const {
    VER_DCHECK(!empty());
    return data()[0];
  }
  const T& back() const {
    VER_DCHECK(!empty());
    return data()[size() - 1];
  }

  /// Mutable access to the owned vector; only valid in the owned state —
  /// builders never see borrowed storage.
  std::vector<T>& mut() {
    VER_DCHECK(extent_ == nullptr) << "mutating a borrowed view";
    return vec_;
  }

  /// Heap bytes owned by this view: 0 when mapped (the bytes belong to the
  /// snapshot map and are accounted by the BufferPool, not the heap) and
  /// when borrowed (the owner accounts for its block).
  uint64_t capacity_bytes() const {
    return extent_ != nullptr ? 0 : vec_.capacity() * sizeof(T);
  }

  /// Borrows `count` elements at `p`, which the caller keeps alive and
  /// unmoved for as long as this view (or a view moved from it) reads them.
  void Borrow(const T* p, uint64_t count) {
    vec_.clear();
    vec_.shrink_to_fit();
    extent_ = p;
    count_ = count;
    space_ = 0;
    mapped_ = false;
    offset_ = 0;
  }

  /// Takes `count` elements starting at mapped byte `raw`. Binds a paged
  /// borrow when `b` carries a pool and `raw` is aligned for T; otherwise
  /// copies the bytes into an owned resident vector (legacy snapshots,
  /// non-paged loads, or pathological misalignment).
  void Adopt(const PagerBinding* b, const char* raw, uint64_t count) {
    if (b != nullptr && b->pool != nullptr &&
        reinterpret_cast<uintptr_t>(raw) % alignof(T) == 0) {
      Borrow(reinterpret_cast<const T*>(raw), count);
      space_ = b->space;
      mapped_ = true;
      offset_ = static_cast<uint64_t>(raw - b->space_base);
      return;
    }
    vec_.resize(count);
    if (count > 0) std::memcpy(vec_.data(), raw, count * sizeof(T));
    DropBinding();
  }

  /// Adds this view's extent to `pin`. No-op for resident views and for
  /// pool-less pins, so call sites need no mode checks.
  void PinInto(PagePin* pin) const {
    if (paged()) pin->PinRange(space_, offset_, count_ * sizeof(T));
  }

  /// Converts a borrow (mapped or from the owner) into an owned copy
  /// (no-op when already owned). The escape hatch for mutating a borrowed
  /// structure: copy first, then mut().
  void MaterializeOwned() {
    if (extent_ == nullptr) return;
    vec_.assign(extent_, extent_ + count_);
    DropBinding();
  }

 private:
  void DropBinding() {
    extent_ = nullptr;
    count_ = 0;
    space_ = 0;
    mapped_ = false;
    offset_ = 0;
  }
  void Reset() {
    vec_.clear();
    vec_.shrink_to_fit();
    DropBinding();
  }

  std::vector<T> vec_;
  const T* extent_ = nullptr;  // borrowed elements; null when owned
  uint64_t count_ = 0;
  uint32_t space_ = 0;
  bool mapped_ = false;  // extent_ lies in a snapshot map
  uint64_t offset_ = 0;
};

/// PagedView's byte-blob sibling, with the same three states: a
/// std::string when owned (dictionary arenas, interned key blobs), a
/// borrowed extent when mapped or borrowed from the owner.
class PagedBytes {
 public:
  PagedBytes() = default;

  PagedBytes(const PagedBytes& o) { *this = o; }
  PagedBytes& operator=(const PagedBytes& o) {
    if (this != &o) {
      str_.assign(o.data(), o.size());
      DropBinding();
    }
    return *this;
  }
  PagedBytes(PagedBytes&& o) noexcept { *this = std::move(o); }
  PagedBytes& operator=(PagedBytes&& o) noexcept {
    if (this != &o) {
      str_ = std::move(o.str_);
      extent_ = o.extent_;
      count_ = o.count_;
      space_ = o.space_;
      mapped_ = o.mapped_;
      offset_ = o.offset_;
      o.Reset();
    }
    return *this;
  }
  PagedBytes& operator=(std::string&& s) {
    str_ = std::move(s);
    DropBinding();
    return *this;
  }

  bool paged() const { return extent_ != nullptr && mapped_; }
  const char* data() const {
    return extent_ != nullptr ? extent_ : str_.data();
  }
  uint64_t size() const { return extent_ != nullptr ? count_ : str_.size(); }
  bool empty() const { return size() == 0; }
  char operator[](uint64_t i) const { return data()[i]; }
  std::string_view view() const {
    return std::string_view(data(), static_cast<size_t>(size()));
  }

  std::string& mut() {
    VER_DCHECK(extent_ == nullptr) << "mutating borrowed bytes";
    return str_;
  }

  uint64_t capacity_bytes() const {
    return extent_ != nullptr ? 0 : str_.capacity();
  }

  /// Borrows `count` bytes at `p`; see PagedView::Borrow.
  void Borrow(const char* p, uint64_t count) {
    str_.clear();
    str_.shrink_to_fit();
    extent_ = p;
    count_ = count;
    space_ = 0;
    mapped_ = false;
    offset_ = 0;
  }

  void Adopt(const PagerBinding* b, const char* raw, uint64_t count) {
    if (b != nullptr && b->pool != nullptr) {
      Borrow(raw, count);
      space_ = b->space;
      mapped_ = true;
      offset_ = static_cast<uint64_t>(raw - b->space_base);
      return;
    }
    str_.assign(raw, static_cast<size_t>(count));
    DropBinding();
  }

  void PinInto(PagePin* pin) const {
    if (paged()) pin->PinRange(space_, offset_, count_);
  }

  void MaterializeOwned() {
    if (extent_ == nullptr) return;
    str_.assign(extent_, static_cast<size_t>(count_));
    DropBinding();
  }

 private:
  void DropBinding() {
    extent_ = nullptr;
    count_ = 0;
    space_ = 0;
    mapped_ = false;
    offset_ = 0;
  }
  void Reset() {
    str_.clear();
    str_.shrink_to_fit();
    DropBinding();
  }

  std::string str_;
  const char* extent_ = nullptr;  // borrowed bytes; null when owned
  uint64_t count_ = 0;
  uint32_t space_ = 0;
  bool mapped_ = false;  // extent_ lies in a snapshot map
  uint64_t offset_ = 0;
};

}  // namespace ver

#endif  // VER_PAGER_PAGED_VIEW_H_
