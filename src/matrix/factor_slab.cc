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

int64_t SystemPageBytes() {
  static const int64_t bytes = sysconf(_SC_PAGESIZE);
  return bytes > 0 ? bytes : 4096;
}

int64_t RoundDownToPage(int64_t bytes) {
  return bytes / SystemPageBytes() * SystemPageBytes();
}

int64_t RoundUpToPage(int64_t bytes) {
  return RoundDownToPage(bytes + SystemPageBytes() - 1);
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
  spill_chunk_rows_ = other.spill_chunk_rows_;
  counters_ = std::move(other.counters_);
  // A moved std::vector keeps its heap buffer, so the in-RAM base pointer
  // stays valid; the mapping base is the mapping's and transfers as-is.
  base_ = spilled() ? other.base_ : dense_.data();
  other.rows_ = 0;
  other.cols_ = 0;
  other.base_ = nullptr;
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  other.spill_path_.clear();
  other.spill_chunk_rows_ = 0;
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
  spill_chunk_rows_ = 0;
  counters_.reset();
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
                             int64_t spill_chunk_rows,
                             const std::string& spill_dir) {
  spill_chunk_rows_ = spill_chunk_rows;
  counters_ = std::make_unique<Counters>();
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
  return Status::OK();
}

Result<FactorSlab> FactorSlab::Create(int64_t rows, int64_t cols,
                                      int64_t spill_chunk_rows,
                                      const std::string& spill_dir) {
  if (rows < 0 || cols < 0 || spill_chunk_rows < 0) {
    return Status::InvalidArgument(
        "FactorSlab shape and spill chunk must be non-negative");
  }
  if (spill_chunk_rows == 0) return FactorSlab(DenseMatrix(rows, cols));
  FactorSlab slab;
  PANE_RETURN_NOT_OK(slab.InitSpill(rows, cols, spill_chunk_rows, spill_dir));
  return slab;
}

Result<FactorSlab> FactorSlab::FromDense(const DenseMatrix& dense,
                                         int64_t spill_chunk_rows,
                                         const std::string& spill_dir) {
  if (spill_chunk_rows == 0) return FactorSlab(dense);
  PANE_ASSIGN_OR_RETURN(
      FactorSlab slab,
      Create(dense.rows(), dense.cols(), spill_chunk_rows, spill_dir));
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

void FactorSlab::DropPages(int64_t first, int64_t last, bool dirty) const {
  last = std::min(last, map_bytes_);
  if (map_ == nullptr || first >= last) return;
  // Residency is advisory: a failed drop leaves the bytes intact and only
  // the RSS bound slips, so it warns instead of failing the computation.
  if (madvise(static_cast<char*>(map_) + first,
              static_cast<size_t>(last - first), MADV_DONTNEED) != 0) {
    PANE_LOG(WARNING) << ErrnoMessage("cannot drop pages of", spill_path_);
    return;
  }
  const int64_t pages = RoundUpToPage(last - first) / SystemPageBytes();
  counters_->evicted_pages.fetch_add(pages);
  if (dirty) {
    counters_->writeback_pages.fetch_add(pages);
  }
}

void FactorSlab::DropRows(int64_t row_begin, int64_t row_end,
                          bool dirty) const {
  PANE_CHECK(0 <= row_begin && row_end <= rows_)
      << "FactorSlab drop out of bounds";
  if (row_begin >= row_end) return;
  DropPages(RoundDownToPage(row_begin * row_bytes()),
            RoundUpToPage(row_end * row_bytes()), dirty);
}

void FactorSlab::DropResidency() const { DropRows(0, rows_, false); }

SpillStats FactorSlab::spill_stats() const {
  SpillStats stats;
  if (counters_ == nullptr) return stats;
  stats.evicted_pages = counters_->evicted_pages.load();
  stats.writeback_pages = counters_->writeback_pages.load();
  stats.resident_peak_bytes = counters_->peak_in_flight_bytes.load();
  return stats;
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
  StreamRows({this}, 0, rows_, /*dirty=*/false,
             [&](int64_t begin, int64_t end) {
               const double* last = base_ + end * cols_;
               for (const double* p = base_ + begin * cols_; p != last; ++p) {
                 sum += *p * *p;
               }
             });
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

void StreamRows(std::initializer_list<const FactorSlab*> slabs, int64_t begin,
                int64_t end, bool dirty,
                const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  const FactorSlab& shape = **slabs.begin();
  const int64_t chunk_rows = shape.stream_chunk_rows();
  const int64_t row_bytes = shape.row_bytes();
  // Each chunk drops the pages the pass has moved past. A page shared with
  // the next chunk waits for it: dropping a page the pass still needs
  // would refault it, and kernel fault-around would map its dropped
  // neighbours back in with it. The last chunk drops its partial page too.
  // So a thread holds its chunk plus at most two partial pages per slab.
  int64_t dropped = RoundDownToPage(begin * row_bytes);
  for (int64_t chunk = begin; chunk < end; chunk += chunk_rows) {
    const int64_t chunk_end = std::min(chunk + chunk_rows, end);
    const int64_t in_flight = RoundUpToPage(chunk_end * row_bytes) - dropped;
    const int64_t drop_to = chunk_end == end
                                ? RoundUpToPage(chunk_end * row_bytes)
                                : RoundDownToPage(chunk_end * row_bytes);
    for (const FactorSlab* slab : slabs) {
      if (slab->map_ == nullptr) continue;
      FactorSlab::Counters& counters = *slab->counters_;
      const int64_t now = counters.in_flight_bytes.fetch_add(in_flight) +
                          in_flight;
      int64_t peak = counters.peak_in_flight_bytes.load();
      while (peak < now &&
             !counters.peak_in_flight_bytes.compare_exchange_weak(peak, now)) {
      }
    }
    fn(chunk, chunk_end);
    for (const FactorSlab* slab : slabs) {
      if (slab->map_ == nullptr) continue;
      slab->DropPages(dropped, drop_to, dirty);
      slab->counters_->in_flight_bytes.fetch_sub(in_flight);
    }
    dropped = drop_to;
  }
}

}  // namespace pane
