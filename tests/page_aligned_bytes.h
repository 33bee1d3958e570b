// Page-aligned heap copy of serialized bytes, standing in for an mmapped
// snapshot in tests: register base()/capacity() with a BufferPool as a
// non-evictable space and load from it through a PagerBinding.

#ifndef VER_TESTS_PAGE_ALIGNED_BYTES_H_
#define VER_TESTS_PAGE_ALIGNED_BYTES_H_

#include <cstdlib>
#include <cstring>
#include <string>

namespace ver {

class PageAlignedBytes {
 public:
  explicit PageAlignedBytes(const std::string& bytes)
      : size_(bytes.size()),
        capacity_((bytes.size() + kPage - 1) / kPage * kPage) {
    base_ = static_cast<char*>(std::aligned_alloc(kPage, capacity_));
    std::memcpy(base_, bytes.data(), bytes.size());
  }
  ~PageAlignedBytes() { std::free(base_); }
  PageAlignedBytes(const PageAlignedBytes&) = delete;
  PageAlignedBytes& operator=(const PageAlignedBytes&) = delete;

  const char* base() const { return base_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kPage = 4096;
  char* base_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace ver

#endif  // VER_TESTS_PAGE_ALIGNED_BYTES_H_
