// Row-major dense matrix of doubles. This is the workhorse container for the
// affinity matrices F', B' (n x d), the embedding blocks Xf, Xb (n x k/2),
// Y (d x k/2), and the residuals Sf, Sb (n x d) — i.e. everything the paper's
// O(nd)-memory analysis (Section 3.3) accounts for.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pane {

class Rng;

/// \brief Non-owning read-only view of contiguous row-major data. The
/// bridge between DenseMatrix-shaped kernels (GEMM, RandSVD) and storage
/// that is not a DenseMatrix — notably FactorSlab row ranges, whether
/// RAM-resident or memory-mapped. Plain pointer + shape; the viewed storage
/// must outlive the view.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, int64_t rows, int64_t cols)
      : data_(data), rows_(rows), cols_(cols) {}

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  const double* Row(int64_t i) const { return data_ + i * cols_; }
  const double* data() const { return data_; }

 private:
  const double* data_ = nullptr;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
};

/// \brief Contiguous row-major matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Allocates rows x cols, zero-initialized.
  DenseMatrix(int64_t rows, int64_t cols);

  /// Builds from a nested initializer list: DenseMatrix({{1,2},{3,4}}).
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  double& operator()(int64_t i, int64_t j) { return data_[i * cols_ + j]; }
  double operator()(int64_t i, int64_t j) const { return data_[i * cols_ + j]; }

  /// Pointer to the start of row i (contiguous, cols() elements).
  double* Row(int64_t i) { return data_.data() + i * cols_; }
  const double* Row(int64_t i) const { return data_.data() + i * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Read-only view of the whole matrix (see ConstMatrixView). The
  /// conversion lets a DenseMatrix go wherever a kernel takes a view.
  ConstMatrixView View() const {
    return ConstMatrixView(data_.data(), rows_, cols_);
  }
  operator ConstMatrixView() const {  // NOLINT(runtime/explicit)
    return View();
  }

  /// Reshapes to rows x cols, discarding contents (zero-filled).
  void Resize(int64_t rows, int64_t cols);

  void Fill(double value);
  void SetZero() { Fill(0.0); }

  /// Fills with i.i.d. N(0, 1) entries (randomized SVD test matrices,
  /// random-initialization baselines).
  void FillGaussian(Rng* rng, double mean = 0.0, double stddev = 1.0);

  /// Fills with i.i.d. U[lo, hi) entries.
  void FillUniform(Rng* rng, double lo, double hi);

  /// Returns the transpose as a new matrix.
  DenseMatrix Transposed() const;

  /// Returns rows [row_begin, row_end) as a new (row_end-row_begin) x cols
  /// matrix (the F'[Vi] blocks of Algorithm 7).
  DenseMatrix RowBlock(int64_t row_begin, int64_t row_end) const;

  /// Returns columns [col_begin, col_end) as a new matrix (the Rr[:, Ri]
  /// blocks of Algorithm 6).
  DenseMatrix ColBlock(int64_t col_begin, int64_t col_end) const;

  /// Copies `block` into this matrix starting at (row_begin, col_begin).
  void SetBlock(int64_t row_begin, int64_t col_begin,
                const DenseMatrix& block);

  /// In-place scale: this *= s.
  void Scale(double s);

  /// In-place add: this += other (shapes must match).
  void Add(const DenseMatrix& other);

  /// In-place subtract: this -= other (shapes must match).
  void Sub(const DenseMatrix& other);

  /// In-place axpy: this += s * other (shapes must match).
  void Axpy(double s, const DenseMatrix& other);

  /// sqrt(sum of squared entries).
  double FrobeniusNorm() const;

  /// Sum of all entries.
  double Sum() const;

  /// max_ij |this - other| (shape-checked).
  double MaxAbsDiff(const DenseMatrix& other) const;

  /// Per-column sums, length cols().
  std::vector<double> ColumnSums() const;

  /// Per-row sums, length rows().
  std::vector<double> RowSums() const;

  /// Multi-line human-readable rendering (small matrices; tests/examples).
  std::string ToString(int max_rows = 10, int max_cols = 12) const;

  bool SameShape(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Identity matrix of order n.
  static DenseMatrix Identity(int64_t n);

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pane
