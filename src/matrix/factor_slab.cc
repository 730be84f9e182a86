#include "src/matrix/factor_slab.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace pane {
namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

FactorSlab::FactorSlab(DenseMatrix dense)
    : rows_(dense.rows()),
      cols_(dense.cols()),
      dense_(std::move(dense)),
      base_(dense_.data()) {}

FactorSlab::FactorSlab(const FactorSlab& other) { *this = other; }

FactorSlab& FactorSlab::operator=(const FactorSlab& other) {
  if (this == &other) return *this;
  DenseMatrix copy(other.rows_, other.cols_);
  if (!other.empty()) {
    std::copy(other.base_, other.base_ + other.rows_ * other.cols_,
              copy.data());
  }
  return *this = std::move(copy);
}

FactorSlab::FactorSlab(FactorSlab&& other) noexcept { *this = std::move(other); }

FactorSlab& FactorSlab::operator=(FactorSlab&& other) noexcept {
  if (this == &other) return *this;
  Destroy();
  rows_ = other.rows_;
  cols_ = other.cols_;
  dense_ = std::move(other.dense_);
  map_ = other.map_;
  map_bytes_ = other.map_bytes_;
  spill_path_ = std::move(other.spill_path_);
  pool_ = other.pool_;
  region_ = other.region_;
  // A moved std::vector keeps its heap buffer, so the in-RAM base pointer
  // stays valid; the mapping base is the mapping's and transfers as-is.
  base_ = spilled() ? other.base_ : dense_.data();
  other.rows_ = 0;
  other.cols_ = 0;
  other.base_ = nullptr;
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  other.spill_path_.clear();
  other.pool_ = nullptr;
  other.region_ = -1;
  return *this;
}

FactorSlab& FactorSlab::operator=(DenseMatrix dense) {
  Destroy();
  rows_ = dense.rows();
  cols_ = dense.cols();
  dense_ = std::move(dense);
  base_ = dense_.data();
  return *this;
}

FactorSlab::~FactorSlab() { Destroy(); }

void FactorSlab::Destroy() {
  if (region_ >= 0) pool_->Unregister(region_);
  pool_ = nullptr;
  region_ = -1;
  if (map_ != nullptr) {
    munmap(map_, static_cast<size_t>(map_bytes_));
    map_ = nullptr;
    map_bytes_ = 0;
  }
  if (!spill_path_.empty()) {
    unlink(spill_path_.c_str());
    spill_path_.clear();
  }
  dense_ = DenseMatrix();
  base_ = nullptr;
  rows_ = 0;
  cols_ = 0;
}

Status FactorSlab::InitSpill(int64_t rows, int64_t cols,
                             store::BufferPool* pool,
                             const std::string& spill_dir) {
  pool_ = pool;
  rows_ = rows;
  cols_ = cols;
  const int64_t bytes = rows * cols * static_cast<int64_t>(sizeof(double));
  if (bytes == 0) return Status::OK();  // empty: no file, no mapping

  std::string dir = spill_dir;
  if (dir.empty()) {
    std::error_code ec;
    dir = std::filesystem::temp_directory_path(ec).string();
    if (ec) dir = "/tmp";
  }
  std::string tmpl = dir + "/pane_slab_XXXXXX";
  std::vector<char> path(tmpl.begin(), tmpl.end());
  path.push_back('\0');
  const int fd = mkstemp(path.data());
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot create spill file in", dir));
  }
  spill_path_.assign(path.data());
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const Status st =
        Status::IOError(ErrnoMessage("cannot size spill file", spill_path_));
    close(fd);
    unlink(spill_path_.c_str());
    spill_path_.clear();
    return st;
  }
  void* map = mmap(nullptr, static_cast<size_t>(bytes),
                   PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);  // the mapping keeps the file contents alive
  if (map == MAP_FAILED) {
    const Status st =
        Status::IOError(ErrnoMessage("cannot map spill file", spill_path_));
    unlink(spill_path_.c_str());
    spill_path_.clear();
    return st;
  }
  map_ = map;
  map_bytes_ = bytes;
  base_ = static_cast<double*>(map);
  // On failure the slab's destructor unmaps and unlinks.
  PANE_ASSIGN_OR_RETURN(region_, pool->Register(map_, map_bytes_));
  return Status::OK();
}

Result<FactorSlab> FactorSlab::Create(int64_t rows, int64_t cols,
                                      store::BufferPool* pool,
                                      const std::string& spill_dir) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("FactorSlab shape must be non-negative");
  }
  if (pool == nullptr) return FactorSlab(DenseMatrix(rows, cols));
  FactorSlab slab;
  PANE_RETURN_NOT_OK(slab.InitSpill(rows, cols, pool, spill_dir));
  return slab;
}

Result<FactorSlab> FactorSlab::FromDense(const DenseMatrix& dense,
                                         store::BufferPool* pool,
                                         const std::string& spill_dir) {
  if (pool == nullptr) return FactorSlab(dense);
  PANE_ASSIGN_OR_RETURN(FactorSlab slab,
                        Create(dense.rows(), dense.cols(), pool, spill_dir));
  if (!slab.empty()) {
    std::copy(dense.data(), dense.data() + dense.size(), slab.base_);
  }
  return slab;
}

ConstMatrixView FactorSlab::ViewRows(int64_t row_begin,
                                     int64_t row_end) const {
  PANE_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= rows_)
      << "FactorSlab row view out of bounds";
  return ConstMatrixView(base_ + row_begin * cols_, row_end - row_begin,
                         cols_);
}

FactorSlab::RowBlock FactorSlab::AcquireRows(int64_t row_begin,
                                             int64_t row_end) {
  PANE_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= rows_)
      << "FactorSlab row block out of bounds";
  RowBlock block;
  block.data = base_ + row_begin * cols_;
  block.row_begin = row_begin;
  block.row_end = row_end;
  block.cols = cols_;
  if (map_ != nullptr) {
    const Status pinned = pool_->Pin(
        region_, row_begin * cols_ * static_cast<int64_t>(sizeof(double)),
        row_end * cols_ * static_cast<int64_t>(sizeof(double)));
    if (!pinned.ok()) {
      // Advisory like every residency call: the flat mapping stays correct
      // without the pin, only the eviction protection is lost.
      PANE_LOG(WARNING) << "slab pin failed: " << pinned;
    }
  }
  return block;
}

Status FactorSlab::ReleaseRows(const RowBlock& block, bool dirty) {
  return ReleaseRowRange(block.row_begin, block.row_end, dirty);
}

Status FactorSlab::ReleaseRowRange(int64_t row_begin, int64_t row_end,
                                   bool dirty) const {
  if (map_ == nullptr || row_begin >= row_end) return Status::OK();
  // Unpin and let the pool decide: pages stay resident until budget
  // pressure actually evicts them (with write-back first when dirty).
  return pool_->Unpin(
      region_, row_begin * cols_ * static_cast<int64_t>(sizeof(double)),
      row_end * cols_ * static_cast<int64_t>(sizeof(double)), dirty);
}

Status FactorSlab::DropResidency() const {
  if (map_ == nullptr) return Status::OK();
  return pool_->EvictRegion(region_);
}

void FactorSlab::Resize(int64_t rows, int64_t cols) {
  PANE_CHECK(!spilled())
      << "FactorSlab::Resize is in-RAM only; spilled slabs are created at "
         "final shape";
  dense_.Resize(rows, cols);
  rows_ = rows;
  cols_ = cols;
  base_ = dense_.data();
}

Result<DenseMatrix> FactorSlab::ToDense() const {
  DenseMatrix out(rows_, cols_);
  if (!empty()) std::copy(base_, base_ + rows_ * cols_, out.data());
  return out;
}

double FactorSlab::FrobeniusNorm() const {
  double sum = 0.0;
  const double* end = base_ + rows_ * cols_;
  for (const double* p = base_; p != end; ++p) sum += *p * *p;
  return std::sqrt(sum);
}

double FactorSlab::MaxAbsDiff(const DenseMatrix& other) const {
  PANE_CHECK(rows_ == other.rows() && cols_ == other.cols())
      << "MaxAbsDiff shape mismatch";
  double max_diff = 0.0;
  const int64_t total = rows_ * cols_;
  const double* o = other.data();
  for (int64_t i = 0; i < total; ++i) {
    max_diff = std::max(max_diff, std::abs(base_[i] - o[i]));
  }
  return max_diff;
}

double FactorSlab::MaxAbsDiff(const FactorSlab& other) const {
  PANE_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "MaxAbsDiff shape mismatch";
  double max_diff = 0.0;
  const int64_t total = rows_ * cols_;
  for (int64_t i = 0; i < total; ++i) {
    max_diff = std::max(max_diff, std::abs(base_[i] - other.base_[i]));
  }
  return max_diff;
}

void ReleaseRowsOrWarn(const FactorSlab& slab, int64_t row_begin,
                       int64_t row_end, bool dirty) {
  if (!slab.spilled()) return;
  const Status released = slab.ReleaseRowRange(row_begin, row_end, dirty);
  if (!released.ok()) {
    PANE_LOG(WARNING) << "slab release failed: " << released;
  }
}

void DropResidencyOrWarn(const FactorSlab& slab) {
  if (!slab.spilled()) return;
  const Status dropped = slab.DropResidency();
  if (!dropped.ok()) {
    PANE_LOG(WARNING) << "slab residency drop failed: " << dropped;
  }
}

Status ValidateMemoryBudgetMb(int64_t memory_budget_mb) {
  if (memory_budget_mb < 0) {
    return Status::InvalidArgument("memory_budget_mb must be >= 0");
  }
  if (memory_budget_mb > (std::numeric_limits<int64_t>::max() >> 20)) {
    return Status::InvalidArgument(
        "memory_budget_mb " + std::to_string(memory_budget_mb) +
        " overflows a byte count");
  }
  return Status::OK();
}

}  // namespace pane
