// Single-file artifact container: named byte streams packed into the paged,
// checksummed layout described in src/store/page.h.
//
//   ContainerWriter w;                       // or w(page_size)
//   w.AddStream("emb.y", PageType::kFactorMatrix, y.data(), y_bytes);
//   w.WriteTo("model.pane");                 // crash-safe: temp+fsync+rename
//
//   PANE_ASSIGN_OR_RETURN(Container c, Container::Open("model.pane"));
//   PANE_ASSIGN_OR_RETURN(auto y, c.ReadArray<double>("emb.y"));
//
// Open() maps the file and verifies the superblock and page table
// immediately; data-page checksums are verified lazily, once per stream, on
// first Read — so a server that only touches Y never faults (or checksums)
// the Xf/Xb pages. Call VerifyAll() for eager whole-file verification.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mmap_file.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/store/page.h"

namespace pane {
namespace store {

/// \brief Collects named streams (by pointer — the caller keeps the bytes
/// alive until WriteTo returns) and writes them as one container file.
class ContainerWriter {
 public:
  explicit ContainerWriter(uint32_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  /// Registers `bytes` bytes at `data` as stream `name`. The name must be
  /// unique, non-empty and at most kMaxStreamNameLength characters; `type`
  /// must be one of the data-page types (kMeta .. kIvfList).
  Status AddStream(const std::string& name, PageType type, const void* data,
                   int64_t bytes);

  int64_t stream_count() const { return static_cast<int64_t>(streams_.size()); }

  /// Lays out, checksums and atomically writes the container. The writer
  /// stays reusable (e.g. to write the same artifact to a second path).
  Status WriteTo(const std::string& path) const;

 private:
  struct PendingStream {
    std::string name;
    PageType type;
    const char* data;
    int64_t bytes;
  };

  uint32_t page_size_;
  std::vector<PendingStream> streams_;
};

/// \brief Read side: a memory-mapped container with verified structure and
/// lazily verified data pages. Thread-safe for concurrent Read calls.
class Container {
 public:
  /// Zero-copy view of one stream's payload. `data` points into the mapping
  /// and is page-aligned; it stays valid for the Container's lifetime.
  struct StreamView {
    const char* data = nullptr;
    int64_t bytes = 0;
    PageType type = PageType::kFree;
  };

  template <typename T>
  struct ArrayView {
    const T* data = nullptr;
    int64_t count = 0;
    PageType type = PageType::kFree;
  };

  Container(Container&&) = default;
  Container& operator=(Container&&) = default;

  /// Maps `path` and validates superblock, page table and stream directory
  /// (including their checksums). Data pages are not read yet.
  static Result<Container> Open(const std::string& path);

  /// True iff `bytes8` (at least 8 bytes) starts with the container magic.
  static bool HasContainerMagic(const void* bytes8) {
    uint64_t magic;
    std::memcpy(&magic, bytes8, sizeof(magic));
    return magic == kContainerMagic;
  }

  /// True iff the file exists and starts with the container magic. Never
  /// errors — short or unreadable files are simply not containers.
  static bool PathIsContainer(const std::string& path);

  bool Contains(const std::string& name) const { return Find(name) != nullptr; }

  /// Directory entry for `name`, or nullptr.
  const StreamEntry* Find(const std::string& name) const;

  /// Checksums the stream's pages (first call only) and returns its payload.
  Result<StreamView> Read(const std::string& name) const;

  /// Read + element-type check: payload size must be a multiple of sizeof(T).
  /// Alignment is guaranteed by page alignment of stream payloads.
  template <typename T>
  Result<ArrayView<T>> ReadArray(const std::string& name) const {
    PANE_ASSIGN_OR_RETURN(StreamView view, Read(name));
    if (view.bytes % static_cast<int64_t>(sizeof(T)) != 0) {
      return Status::IOError("container stream '" + name + "' in " + path_ +
                             " holds " + std::to_string(view.bytes) +
                             " bytes, not a multiple of element size " +
                             std::to_string(sizeof(T)));
    }
    return ArrayView<T>{reinterpret_cast<const T*>(view.data),
                        view.bytes / static_cast<int64_t>(sizeof(T)),
                        view.type};
  }

  /// Eagerly verifies every data page (streams and free pages alike), so a
  /// flipped bit anywhere in the file is reported even if no consumer ever
  /// reads that stream.
  Status VerifyAll() const;

  const std::string& path() const { return path_; }
  uint32_t page_size() const { return superblock_.page_size; }
  int64_t num_pages() const {
    return static_cast<int64_t>(superblock_.num_pages);
  }
  const std::vector<StreamEntry>& streams() const { return streams_; }

 private:
  Container() = default;

  StreamView ViewOf(const StreamEntry& entry) const;
  /// Verifies the pages of stream `index` against the page table, memoized.
  Status VerifyStream(int64_t index) const;
  Status VerifyPageRange(int64_t first_page, int64_t page_count,
                         const std::string& what) const;

  std::string path_;
  MappedFile map_;
  SuperblockHeader superblock_;
  int64_t data_first_ = 0;  // page id of the first data page
  std::vector<StreamEntry> streams_;
  std::vector<PageTableEntry> table_;  // one per data page
  // Lazily verified stream flags, guarded by *verify_mutex_: Read() callers
  // take a reader lock to check the memo (the read-mostly steady state) and
  // upgrade to the writer lock only to run the checksum pass once. The lock
  // lives behind a unique_ptr because Container must stay movable.
  mutable std::vector<uint8_t> verified_;
  mutable std::unique_ptr<SharedMutex> verify_mutex_;
};

}  // namespace store
}  // namespace pane
