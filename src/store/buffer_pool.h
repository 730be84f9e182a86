// Pinning buffer pool over memory-mapped spill files.
//
// This is deliberately NOT a classic frame pool that stages pages into its
// own buffers: PANE's pipeline kernels address spilled factor slabs through
// raw flat pointers (FactorSlab::Row / data()), so any design that moves
// bytes out of the mapping would turn a stray flat access into silent
// garbage. Instead the pool is a residency ledger over registered MAP_SHARED
// mappings. "Eviction" is msync(MS_ASYNC) (if dirty) followed by
// MADV_DONTNEED — which only drops this process's page-table entries; the
// page cache remains the source of truth, so a later access through any
// pointer simply refaults the correct bytes. Correctness is therefore
// unconditional; the pool only decides *when* memory is given back.
//
// The pool is the only spill residency path: every spilled FactorSlab
// registers its mapping here (src/matrix/factor_slab.h), and nothing else
// calls madvise / msync (tools/lint.sh Rule 6). It keeps pages resident
// until budget pressure actually demands otherwise, evicts at pool-page
// granularity with a clock (second-chance) policy, and floors pin counts at
// zero so kernels that release rows they never explicitly acquired keep
// working unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"

namespace pane {
namespace store {

class BufferPool {
 public:
  using RegionId = int64_t;

  struct Options {
    /// Target ceiling on resident bytes across all registered regions.
    /// <= 0 means unbounded (the pool only tracks, never evicts on Pin).
    int64_t budget_bytes = 0;
    /// Eviction granule; rounded up to a multiple of the system page size.
    int64_t page_bytes = 256 * 1024;
  };

  struct Stats {
    int64_t evicted_pages = 0;    ///< pool pages dropped via MADV_DONTNEED
    int64_t writeback_pages = 0;  ///< dirty pool pages flushed before drop
    int64_t resident_bytes = 0;   ///< current ledger estimate
    int64_t resident_peak_bytes = 0;
    int64_t registered_bytes = 0;
  };

  explicit BufferPool(Options options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Registers a MAP_SHARED mapping (`base` must be an mmap result, i.e.
  /// system-page aligned). The pool never unmaps it — the owner does.
  Result<RegionId> Register(void* base, int64_t bytes) PANE_EXCLUDES(mutex_);

  /// Forgets the region (dropping its resident accounting). Must be called
  /// before the owner munmaps.
  void Unregister(RegionId region) PANE_EXCLUDES(mutex_);

  /// Marks byte range [begin, end) resident and pinned; pinned pages are
  /// skipped by eviction. May evict unpinned pages elsewhere to honor the
  /// budget. Faulting is left to the caller's actual accesses.
  Status Pin(RegionId region, int64_t begin, int64_t end)
      PANE_EXCLUDES(mutex_);

  /// Drops one pin from each page of the range (floored at zero, so
  /// releasing rows that were never acquired is a valid no-op pin-wise),
  /// marks the range resident and — if `dirty` — in need of write-back
  /// before any future drop. Triggers eviction if over budget.
  Status Unpin(RegionId region, int64_t begin, int64_t end, bool dirty)
      PANE_EXCLUDES(mutex_);

  /// Immediately drops every unpinned page of the region (write-back first
  /// where dirty), regardless of budget. FactorSlab::DropResidency maps
  /// here.
  Status EvictRegion(RegionId region) PANE_EXCLUDES(mutex_);

  Stats stats() const PANE_EXCLUDES(mutex_);
  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t page_bytes() const { return page_bytes_; }

 private:
  struct Region {
    char* base = nullptr;
    int64_t bytes = 0;
    int64_t num_pages = 0;
    bool live = false;
    std::vector<int32_t> pins;     // per pool page
    std::vector<uint8_t> resident;
    std::vector<uint8_t> dirty;
    std::vector<uint8_t> referenced;  // clock second-chance bit
  };

  /// Clock sweep until resident_bytes_ <= budget or nothing evictable.
  void EvictUntilWithinBudgetLocked() PANE_REQUIRES(mutex_);
  /// Write back (if dirty) and drop one page. Returns bytes released.
  int64_t EvictPageLocked(Region& region, int64_t page) PANE_REQUIRES(mutex_);
  Status CheckRange(const Region& region, int64_t begin, int64_t end) const;

  const int64_t budget_bytes_;
  const int64_t page_bytes_;

  /// One capability guards the whole ledger: the region table (per-page pin
  /// counts, residency/dirty/reference bitmaps), the clock hand, and the
  /// stats. Eviction syscalls (msync / madvise) run under it too — the pool
  /// is a slow-path residency controller, never on the kernels' access path.
  mutable Mutex mutex_;
  std::vector<Region> regions_ PANE_GUARDED_BY(mutex_);
  int64_t clock_region_ PANE_GUARDED_BY(mutex_) = 0;
  int64_t clock_page_ PANE_GUARDED_BY(mutex_) = 0;
  Stats stats_ PANE_GUARDED_BY(mutex_);
};

}  // namespace store
}  // namespace pane
