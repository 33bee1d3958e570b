// PagedView<T>: the one array type of snapshot-backed and block-backed
// structures, and the one codec that moves arrays in and out of snapshots.
// A view is in one of two states.
//
//   owned     a container the view owns and behaves exactly like — a
//             std::vector<T>, or a std::string for PagedView<char> (byte
//             blobs: dictionary arenas, interned key blobs) — the build
//             path and the resident load path.
//   borrowed  an extent of memory someone else keeps alive: a typed extent
//             of an mmapped snapshot under a paged load, or a gathered
//             column's one storage block.
//
// Readers use the same data()/size()/operator[] surface in both states, so
// query code is mode-blind; only mutation (mut()) insists on the owned
// state. Copying a view always yields an owned copy; moving one keeps its
// borrow (the borrowed memory does not move).
//
// SaveTo writes a view as one SerdeWriter::WriteArray (64-byte-aligned
// elements) or, for PagedView<char>, as one unaligned WriteString; LoadFrom
// reads it back owned (a memcpy) or, when told to borrow, borrowed (no
// copy). The elements are the host's bytes, which is the wire format
// because hosts are little-endian (util/serde.h).
//
// A view borrowed from a snapshot is valid only while the SnapshotMap that
// backs it lives (the engine's PagerRuntime guarantees that). A view knows
// nothing of the BufferPool: what a query pins is a whole table's span of
// the map (TableRepository::PinTable), and an unpinned read still returns
// correct bytes (the page refaults from the file); it just escapes the
// pool's residency budget.

#ifndef VER_PAGER_PAGED_VIEW_H_
#define VER_PAGER_PAGED_VIEW_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/serde.h"

namespace ver {

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
      DropBorrow();
    }
    return *this;
  }
  PagedView(PagedView&& o) noexcept { *this = std::move(o); }
  PagedView& operator=(PagedView&& o) noexcept {
    if (this != &o) {
      vec_ = std::move(o.vec_);
      extent_ = o.extent_;
      count_ = o.count_;
      o.Reset();
    }
    return *this;
  }
  PagedView& operator=(Owned&& v) {
    vec_ = std::move(v);
    DropBorrow();
    return *this;
  }

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

  /// Heap bytes owned by this view: 0 when borrowed (a snapshot map's
  /// bytes are accounted by the BufferPool, a block by its owner).
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
  /// With `borrow` (a paged load, whose reader's bytes are a snapshot map)
  /// the view borrows the elements from the reader's bytes; otherwise, or
  /// when the elements are not aligned for T, it copies them into the owned
  /// container.
  Status LoadFrom(SerdeReader* r, bool borrow, const char* what) {
    const char* raw = nullptr;
    uint64_t count = 0;
    if constexpr (kBlob) {
      VER_RETURN_IF_ERROR(r->ReadStringExtent(what, &raw, &count));
    } else {
      VER_RETURN_IF_ERROR(r->ReadArrayExtent(sizeof(T), what, &raw, &count));
    }
    if (borrow && reinterpret_cast<uintptr_t>(raw) % alignof(T) == 0) {
      Borrow(reinterpret_cast<const T*>(raw), count);
      return Status::OK();
    }
    vec_.resize(static_cast<size_t>(count));
    if (count > 0) std::memcpy(&vec_[0], raw, count * sizeof(T));
    DropBorrow();
    return Status::OK();
  }

  /// Converts a borrow (from a snapshot or a block) into an owned copy
  /// (no-op when already owned). The escape hatch for mutating a borrowed
  /// structure: copy first, then mut().
  void MaterializeOwned() {
    if (extent_ == nullptr) return;
    vec_.assign(extent_, extent_ + count_);
    DropBorrow();
  }

 private:
  void DropBorrow() {
    extent_ = nullptr;
    count_ = 0;
  }
  void Reset() {
    vec_.clear();
    vec_.shrink_to_fit();
    DropBorrow();
  }

  Owned vec_;
  const T* extent_ = nullptr;  // borrowed elements; null when owned
  uint64_t count_ = 0;
};

}  // namespace ver

#endif  // VER_PAGER_PAGED_VIEW_H_
