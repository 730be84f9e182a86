// FactorSlab: the row-major n x d factor store behind every big matrix in
// the PANE pipeline — the affinity outputs F' / B', which init overwrites
// in place with the CCD residuals Sf / Sb. A slab either holds a
// DenseMatrix (in RAM) or is spilled: a MAP_SHARED mapping of a scratch file
// that is unlinked on destruction. The page cache is the only copy of a
// spilled slab's bytes, so dropping a mapped page (MADV_DONTNEED) loses
// nothing: the next access through any pointer refaults it.
//
// Both forms expose the same flat row-major address space, so every kernel
// runs one code path regardless of where the bytes live — which is what
// makes spilled and in-RAM runs bitwise identical. What a spilled slab
// adds is when its pages go: a streaming pass (StreamRows) walks its rows
// in chunks of stream_chunk_rows() and drops the pages of each chunk as
// soon as it is done, and a phase that touched the whole slab drops all of
// it at its end (DropResidency). In RAM both are no-ops and a pass is one
// chunk.
//
// A slab never sees the memory budget: whether a run's slabs spill, and
// the rows per chunk, are the training memory plan's call (PlanMemory in
// src/core/pane.h), made once before the slabs are created.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"

namespace pane {

/// \brief What a spilled slab's drops gave back (all zero in RAM).
struct SpillStats {
  int64_t evicted_pages = 0;        ///< system pages dropped
  int64_t writeback_pages = 0;      ///< pages dropped after a pass wrote them
  int64_t resident_peak_bytes = 0;  ///< peak streamed bytes in flight
};

class FactorSlab {
 public:
  /// Empty in-RAM slab (0 x 0).
  FactorSlab() = default;

  /// Wraps an existing DenseMatrix as an in-RAM slab (implicit on purpose:
  /// tests and benches build their slabs from dense matrices this way).
  FactorSlab(DenseMatrix dense);  // NOLINT(runtime/explicit)

  /// Deep copy into an independent in-RAM slab, whatever the source's
  /// storage: the copy has no claim on the source's spill file.
  /// Copies are a test / bench convenience; production code moves.
  FactorSlab(const FactorSlab& other);
  FactorSlab& operator=(const FactorSlab& other);

  FactorSlab(FactorSlab&& other) noexcept;
  FactorSlab& operator=(FactorSlab&& other) noexcept;

  /// Replaces contents with `dense`, in RAM (any previous spill file is
  /// unmapped and removed).
  FactorSlab& operator=(DenseMatrix dense);

  /// Unmaps and unlinks the spill file when spilled.
  ~FactorSlab();

  /// \brief Creates a zero-filled rows x cols slab: in RAM when
  /// `spill_chunk_rows` is 0, otherwise spilled to a file in `spill_dir`
  /// (empty => the system temp directory) and streamed `spill_chunk_rows`
  /// rows at a time. On any failure nothing is left behind on disk.
  static Result<FactorSlab> Create(int64_t rows, int64_t cols,
                                   int64_t spill_chunk_rows = 0,
                                   const std::string& spill_dir = "");

  /// \brief Creates a slab holding a copy of `dense`, placed as Create
  /// places it.
  static Result<FactorSlab> FromDense(const DenseMatrix& dense,
                                      int64_t spill_chunk_rows = 0,
                                      const std::string& spill_dir = "");

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size_bytes() const {
    return rows_ * cols_ * static_cast<int64_t>(sizeof(double));
  }
  bool empty() const { return rows_ * cols_ == 0; }
  bool spilled() const { return spill_chunk_rows_ > 0; }
  /// Rows a streaming pass handles between drops: the spill chunk when
  /// spilled, every row (at least one) in RAM.
  int64_t stream_chunk_rows() const {
    return spilled() ? spill_chunk_rows_ : std::max<int64_t>(rows_, 1);
  }
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

  /// \brief Drops the system pages holding rows [row_begin, row_end) of a
  /// spilled slab from this process (no-op in RAM). The bytes stay in the
  /// page cache, so a later access refaults them; a page shared with a
  /// neighbouring row is dropped too and simply refaults. `dirty` says the
  /// pass wrote the rows, and only feeds spill_stats().
  void DropRows(int64_t row_begin, int64_t row_end, bool dirty) const;

  /// \brief Drops every page of a spilled slab (no-op in RAM). Called at
  /// phase ends, so one phase's pages do not stay mapped through the next.
  void DropResidency() const;

  /// The slab's drop counters so far (zero in RAM).
  SpillStats spill_stats() const;

  /// Reshapes (zero-filled). In-RAM slabs only — spilled slabs are created
  /// at final shape.
  void Resize(int64_t rows, int64_t cols);

  /// Materializes the slab as a DenseMatrix (always a copy).
  Result<DenseMatrix> ToDense() const;

  /// sqrt(sum of squares), accumulated in row-major element order (matches
  /// DenseMatrix::FrobeniusNorm bitwise); streamed, so a spilled slab keeps
  /// one chunk mapped at a time.
  double FrobeniusNorm() const;

  double MaxAbsDiff(const DenseMatrix& other) const;
  double MaxAbsDiff(const FactorSlab& other) const;

 private:
  friend void StreamRows(std::initializer_list<const FactorSlab*> slabs,
                         int64_t begin, int64_t end, bool dirty,
                         const std::function<void(int64_t, int64_t)>& fn);

  // Written concurrently by the streaming threads; heap-held so a move
  // hands them over with the mapping.
  struct Counters {
    std::atomic<int64_t> evicted_pages{0};
    std::atomic<int64_t> writeback_pages{0};
    std::atomic<int64_t> in_flight_bytes{0};
    std::atomic<int64_t> peak_in_flight_bytes{0};
  };

  Status InitSpill(int64_t rows, int64_t cols, int64_t spill_chunk_rows,
                   const std::string& spill_dir);
  void Destroy();
  int64_t row_bytes() const {
    return cols_ * static_cast<int64_t>(sizeof(double));
  }
  /// Drops the mapping's bytes [first, last) (`first` page-aligned, `last`
  /// clipped to the mapping) and counts the pages.
  void DropPages(int64_t first, int64_t last, bool dirty) const;

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  DenseMatrix dense_;       // in-RAM storage
  double* base_ = nullptr;  // dense_.data() or the mapping base
  void* map_ = nullptr;     // spill mapping (nullptr when empty / in-RAM)
  int64_t map_bytes_ = 0;
  std::string spill_path_;  // "" when in-RAM or empty
  int64_t spill_chunk_rows_ = 0;       // > 0 iff spilled
  std::unique_ptr<Counters> counters_;  // non-null iff spilled
};

/// \brief Checks a memory budget in MiB: non-negative, and small enough that
/// its byte count (the budget << 20) fits in int64_t — a larger value would
/// wrap negative and read as a tiny budget.
Status ValidateMemoryBudgetMb(int64_t memory_budget_mb);

/// \brief Runs fn(chunk_begin, chunk_end) over rows [begin, end) in order,
/// in chunks of the first slab's stream_chunk_rows() (the slabs share a
/// shape). As soon as fn returns, every spilled slab drops the pages the
/// pass has finished (`dirty`: fn wrote them); a page shared with the next
/// chunk goes with it. In RAM it is one fn(begin, end) call. Several
/// threads may stream disjoint row ranges of the same slabs.
void StreamRows(std::initializer_list<const FactorSlab*> slabs, int64_t begin,
                int64_t end, bool dirty,
                const std::function<void(int64_t, int64_t)>& fn);

}  // namespace pane
