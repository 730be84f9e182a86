// FactorSlab: the row-major n x d factor store behind every big matrix in
// the PANE pipeline — the affinity outputs F' / B', which init overwrites
// in place with the CCD residuals Sf / Sb. A slab either holds a
// DenseMatrix (in RAM) or is spilled: a memory-mapped spill file
// (MAP_SHARED on a file unlinked on destruction) registered with a
// store::BufferPool, which keeps pages resident until pool-wide budget
// pressure evicts them (clock policy, pool-page granularity). "Spilled"
// means exactly "has a pool"; there is no other spill path.
//
// Both forms expose the same flat row-major address space, so every kernel
// runs one code path regardless of where the bytes live — which is what
// makes spilled and in-RAM runs bitwise identical. The RowBlock API
// (AcquireRows / ReleaseRows) adds residency management on top: acquiring
// a block of a spilled slab pins its pages, releasing it unpins them and
// marks them for write-back when dirty; the page cache keeps the
// authoritative copy, so re-acquisition is lossless. For an in-RAM slab
// every release is a no-op, so callers sprinkle releases unconditionally.
//
// A slab never sees the memory budget: whether a run's slabs spill, and how
// large their pool is, is the training memory plan's call (PlanMemory in
// src/core/pane.h), made once before the slabs are created.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"
#include "src/store/buffer_pool.h"

namespace pane {

class FactorSlab {
 public:
  /// Empty in-RAM slab (0 x 0).
  FactorSlab() = default;

  /// Wraps an existing DenseMatrix as an in-RAM slab (implicit on purpose:
  /// tests and benches build their slabs from dense matrices this way).
  FactorSlab(DenseMatrix dense);  // NOLINT(runtime/explicit)

  /// Deep copy into an independent in-RAM slab, whatever the source's
  /// storage: the copy has no claim on the source's pool or spill file.
  /// Copies are a test / bench convenience; production code moves.
  FactorSlab(const FactorSlab& other);
  FactorSlab& operator=(const FactorSlab& other);

  FactorSlab(FactorSlab&& other) noexcept;
  FactorSlab& operator=(FactorSlab&& other) noexcept;

  /// Replaces contents with `dense`, in RAM (any previous spill file is
  /// unregistered from its pool and removed).
  FactorSlab& operator=(DenseMatrix dense);

  /// Unmaps and unlinks the spill file when spilled.
  ~FactorSlab();

  /// \brief Creates a zero-filled rows x cols slab: in RAM when `pool` is
  /// null, otherwise spilled to a file in `spill_dir` (empty => the system
  /// temp directory) whose mapping is registered with `pool`, which must
  /// outlive the slab. On any failure nothing is left behind on disk.
  static Result<FactorSlab> Create(int64_t rows, int64_t cols,
                                   store::BufferPool* pool = nullptr,
                                   const std::string& spill_dir = "");

  /// \brief Creates a slab holding a copy of `dense`, placed as Create
  /// places it.
  static Result<FactorSlab> FromDense(const DenseMatrix& dense,
                                      store::BufferPool* pool = nullptr,
                                      const std::string& spill_dir = "");

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size_bytes() const {
    return rows_ * cols_ * static_cast<int64_t>(sizeof(double));
  }
  bool empty() const { return rows_ * cols_ == 0; }
  bool spilled() const { return pool_ != nullptr; }
  /// Path of the spill file ("" for in-RAM slabs).
  const std::string& spill_path() const { return spill_path_; }

  double* Row(int64_t i) { return base_ + i * cols_; }
  const double* Row(int64_t i) const { return base_ + i * cols_; }
  double* data() { return base_; }
  const double* data() const { return base_; }

  /// Read-only view of the whole slab / a contiguous row range; feeds the
  /// view-based GEMM and RandSVD kernels without copying, spilled or not.
  ConstMatrixView View() const {
    return ConstMatrixView(base_, rows_, cols_);
  }
  ConstMatrixView ViewRows(int64_t row_begin, int64_t row_end) const;

  /// \brief Zero-copy mutable view of rows [row_begin, row_end).
  struct RowBlock {
    double* data = nullptr;
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t cols = 0;

    int64_t rows() const { return row_end - row_begin; }
    /// Row pointer by absolute slab row index.
    double* Row(int64_t i) { return data + (i - row_begin) * cols; }
    const double* Row(int64_t i) const {
      return data + (i - row_begin) * cols;
    }
  };

  /// For a spilled slab this also pins the block's pages against eviction
  /// until the matching release.
  RowBlock AcquireRows(int64_t row_begin, int64_t row_end);

  /// \brief Returns a block to the slab. In-RAM: no-op. Spilled: unpins the
  /// pages and hands them to the pool (marked for write-back when `dirty`),
  /// which evicts only under budget pressure. Content is preserved — the
  /// page cache keeps the authoritative copy.
  Status ReleaseRows(const RowBlock& block, bool dirty);
  Status ReleaseRowRange(int64_t row_begin, int64_t row_end,
                         bool dirty) const;

  /// \brief Evicts every unpinned page of a spilled slab from the pool
  /// (no-op in RAM). Called at phase boundaries so one phase's sweep does
  /// not stay resident through the next.
  Status DropResidency() const;

  /// Reshapes (zero-filled). In-RAM slabs only — spilled slabs are created
  /// at final shape.
  void Resize(int64_t rows, int64_t cols);

  /// Materializes the slab as a DenseMatrix (always a copy).
  Result<DenseMatrix> ToDense() const;

  /// sqrt(sum of squares), accumulated in row-major element order (matches
  /// DenseMatrix::FrobeniusNorm bitwise).
  double FrobeniusNorm() const;

  double MaxAbsDiff(const DenseMatrix& other) const;
  double MaxAbsDiff(const FactorSlab& other) const;

 private:
  Status InitSpill(int64_t rows, int64_t cols, store::BufferPool* pool,
                   const std::string& spill_dir);
  void Destroy();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  DenseMatrix dense_;       // in-RAM storage
  double* base_ = nullptr;  // dense_.data() or the mapping base
  void* map_ = nullptr;     // spill mapping (nullptr when empty / in-RAM)
  int64_t map_bytes_ = 0;
  std::string spill_path_;  // "" when in-RAM or empty
  store::BufferPool* pool_ = nullptr;  // non-null iff spilled; not owned
  store::BufferPool::RegionId region_ = -1;  // -1 when nothing is mapped
};

/// \brief Checks a memory budget in MiB: non-negative, and small enough that
/// its byte count (the budget << 20) fits in int64_t — a larger value would
/// wrap negative and read as a tiny budget.
Status ValidateMemoryBudgetMb(int64_t memory_budget_mb);

/// \brief Rows a streaming pass over a slab handles between releases: a
/// spilled slab gives a chunk's pages back to its pool as the chunk
/// finishes, so a pass pins at most one chunk per thread.
constexpr int64_t kStreamChunkRows = 4096;

/// \brief The streaming passes' release policy, in one place: residency
/// failures are advisory (the data is intact, only the RSS bound slips), so
/// they log a warning instead of aborting the computation. No-ops for
/// in-RAM slabs, like the underlying calls.
void ReleaseRowsOrWarn(const FactorSlab& slab, int64_t row_begin,
                       int64_t row_end, bool dirty);
void DropResidencyOrWarn(const FactorSlab& slab);

}  // namespace pane
