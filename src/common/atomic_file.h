// Crash-safe file replacement: write into a same-directory temp file, fsync,
// then atomically rename over the destination. A reader (or a crashed
// writer) therefore only ever observes the old complete file or the new
// complete file — never a torn half-write. Every artifact writer in the
// tree (the store:: container behind embeddings, graphs and IVF indexes, and
// the text / edge-list graph files) goes through this helper, so "the
// process died mid-save" can no longer corrupt a deployed artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace pane {

/// \brief Incremental crash-safe writer. Appends (and random-access writes)
/// go to `<path>.tmp.XXXXXX` in the destination directory; Commit() fsyncs
/// and renames the temp file onto `path`. If the writer is destroyed
/// without a successful Commit, the temp file is removed — the destination
/// is never touched.
class AtomicFile {
 public:
  AtomicFile() = default;
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;
  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;

  /// Removes the temp file when Commit never succeeded.
  ~AtomicFile();

  /// Creates the temp file next to `path` (same filesystem, so the final
  /// rename is atomic).
  static Result<AtomicFile> Create(const std::string& path);

  Status Append(const void* data, int64_t bytes);

  /// pwrite at an absolute offset (placeholder back-patching: a container
  /// writes its superblock last, after the page checksums are known).
  Status WriteAt(int64_t offset, const void* data, int64_t bytes);

  /// Bytes appended so far (not counting WriteAt beyond the append cursor).
  int64_t appended() const { return appended_; }

  /// fsync, close, rename over the destination, then best-effort fsync of
  /// the parent directory so the rename itself is durable.
  Status Commit();

 private:
  void Abandon();

  int fd_ = -1;
  int64_t appended_ = 0;
  std::string tmp_path_;
  std::string final_path_;
};

/// \brief One-shot convenience: atomically replaces `path` with `contents`.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

}  // namespace pane
