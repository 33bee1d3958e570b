// PagedView<T>: the one array type of snapshot-backed and block-backed
// structures, and the one codec that moves arrays in and out of snapshots.
// A view is in one of three states.
//
//   owned     a container the view owns and behaves exactly like — a
//             std::vector<T>, or a std::string for PagedView<char> (byte
//             blobs: dictionary arenas, interned key blobs) — the build
//             path and the resident load path.
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
// SaveTo writes a view as one SerdeWriter::WriteArray (64-byte-aligned
// elements) or, for PagedView<char>, as one unaligned WriteString; LoadFrom
// reads it back owned (a memcpy) or, with a pager binding, mapped (no
// copy). The elements are the host's bytes, which is the wire format
// because hosts are little-endian (util/serde.h).
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
#include "util/serde.h"

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
  static constexpr bool kBlob = std::is_same_v<T, char>;

 public:
  /// The owned-state container.
  using Owned = std::conditional_t<kBlob, std::string, std::vector<T>>;

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
  PagedView& operator=(Owned&& v) {
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
  /// A byte blob's bytes.
  std::string_view view() const {
    static_assert(kBlob, "view() is for PagedView<char>");
    return std::string_view(data(), static_cast<size_t>(size()));
  }

  /// Mutable access to the owned container; only valid in the owned state
  /// — builders never see borrowed storage.
  Owned& mut() {
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

  /// Appends the view to `w`: a WriteArray, or a WriteString for a blob.
  void SaveTo(SerdeWriter* w) const {
    if constexpr (kBlob) {
      w->WriteString(view());
    } else {
      w->WriteArray(data(), size());
    }
  }

  /// Reads what SaveTo wrote; `what` names the array in truncation errors.
  /// With a binding that carries a pool the view borrows the elements from
  /// the mapped snapshot (paged); otherwise, or when the elements are not
  /// aligned for T, it copies them into the owned container.
  Status LoadFrom(SerdeReader* r, const PagerBinding* b, const char* what) {
    const char* raw = nullptr;
    uint64_t count = 0;
    if constexpr (kBlob) {
      VER_RETURN_IF_ERROR(r->ReadStringExtent(what, &raw, &count));
    } else {
      VER_RETURN_IF_ERROR(r->ReadArrayExtent(sizeof(T), what, &raw, &count));
    }
    if (b != nullptr && b->pool != nullptr &&
        reinterpret_cast<uintptr_t>(raw) % alignof(T) == 0) {
      Borrow(reinterpret_cast<const T*>(raw), count);
      space_ = b->space;
      mapped_ = true;
      offset_ = static_cast<uint64_t>(raw - b->space_base);
      return Status::OK();
    }
    vec_.resize(static_cast<size_t>(count));
    if (count > 0) std::memcpy(&vec_[0], raw, count * sizeof(T));
    DropBinding();
    return Status::OK();
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

  Owned vec_;
  const T* extent_ = nullptr;  // borrowed elements; null when owned
  uint64_t count_ = 0;
  uint32_t space_ = 0;
  bool mapped_ = false;  // extent_ lies in a snapshot map
  uint64_t offset_ = 0;
};

}  // namespace ver

#endif  // VER_PAGER_PAGED_VIEW_H_
