// On-disk vocabulary of the PANE artifact container (little-endian
// throughout, like every other PANE format). A container is one file of
// fixed-size pages:
//
//   page 0                superblock: format version, page size, stream
//                         directory (name -> page extent), own CRC32C
//   pages 1..T            page table: one 8-byte entry (type + CRC32C) per
//                         data page, each table page carrying its own CRC
//   pages T+1..num_pages  data pages: raw stream payload, no inline header
//
// Data pages deliberately carry no inline header: a stream's payload is a
// contiguous, page-aligned (hence 8-byte-aligned) byte range, which is what
// lets a memory-mapped reader hand out zero-copy double/float views and
// fault only the streams a consumer actually touches (serve Y without
// faulting Xf). Their type and checksum live in the page table instead.
// Every byte of the file is covered by exactly one CRC32C: data pages by
// their table entry, table pages and the superblock by an embedded checksum
// computed with that field zeroed — so a single flipped bit anywhere is
// detected at read time.
//
// Writers never update a container in place: the whole file is produced
// through AtomicFile (temp + fsync + rename), so a crashed save leaves the
// previous artifact intact.
#pragma once

#include <cstdint>
#include <cstring>

namespace pane {
namespace store {

// "PANECTN1": the first 8 bytes of every binary artifact, so a loader can
// tell a container from a text or edge-list input.
inline constexpr uint64_t kContainerMagic = 0x50414E4543544E31ULL;

inline constexpr uint32_t kFormatVersion = 1;

/// Page size bounds. The default balances checksum granularity (a flipped
/// bit localizes to 64 KiB) against page-table overhead (8 bytes per page,
/// ~0.012%).
inline constexpr uint32_t kDefaultPageSize = 64 * 1024;
inline constexpr uint32_t kMinPageSize = 4 * 1024;
inline constexpr uint32_t kMaxPageSize = 16 * 1024 * 1024;

/// Typed pages. kSuperblock / kPageTable structure the container itself;
/// the rest tag what a data page holds so tooling can attribute corruption
/// and partial loads can skip whole extents by type.
enum class PageType : uint8_t {
  kFree = 0,          ///< allocated but unused (zero-filled)
  kSuperblock = 1,
  kPageTable = 2,
  kMeta = 3,          ///< serialized artifact metadata (shapes, conventions)
  kGraphCsr = 4,      ///< graph CSR arrays (indptr / indices / values)
  kFactorMatrix = 5,  ///< row-major double factor payload (features/xf/xb/y)
  kIvfList = 6,       ///< IVF index payload (centroids, members, offsets)
};

inline const char* PageTypeToString(PageType t) {
  switch (t) {
    case PageType::kFree: return "free";
    case PageType::kSuperblock: return "superblock";
    case PageType::kPageTable: return "page-table";
    case PageType::kMeta: return "meta";
    case PageType::kGraphCsr: return "graph-csr";
    case PageType::kFactorMatrix: return "factor-matrix";
    case PageType::kIvfList: return "ivf-list";
  }
  return "unknown";
}

inline constexpr uint32_t kMaxStreamNameLength = 31;

/// One directory entry in the superblock: a named, typed, contiguous page
/// extent. 64 bytes, fixed.
struct StreamEntry {
  char name[kMaxStreamNameLength + 1];  // NUL-terminated, NUL-padded
  uint64_t first_page = 0;
  uint64_t page_count = 0;
  uint64_t payload_bytes = 0;  // <= page_count * page_size; tail zero-padded
  uint8_t type = 0;            // PageType of the extent's data pages
  uint8_t reserved[7] = {};
};
static_assert(sizeof(StreamEntry) == 64, "on-disk layout");

/// Fixed head of page 0; the StreamEntry array follows immediately, then
/// zero padding to page_size. `crc` is the CRC32C of the whole superblock
/// page computed with this field zeroed.
struct SuperblockHeader {
  uint64_t magic = kContainerMagic;
  uint32_t version = kFormatVersion;
  uint32_t page_size = kDefaultPageSize;
  uint64_t num_pages = 0;         // total, including page 0 and the table
  uint64_t page_table_first = 1;  // first page-table page
  uint64_t page_table_pages = 0;
  uint32_t stream_count = 0;
  uint32_t crc = 0;
};
static_assert(sizeof(SuperblockHeader) == 48, "on-disk layout");

/// One page-table entry per data page, in page order starting at the first
/// data page. 8 bytes.
struct PageTableEntry {
  uint32_t crc = 0;  // CRC32C of the full page (payload + zero padding)
  uint8_t type = 0;  // PageType
  uint8_t flags = 0;
  uint16_t reserved = 0;
};
static_assert(sizeof(PageTableEntry) == 8, "on-disk layout");

/// Fixed head of each page-table page; PageTableEntry records follow, then
/// zero padding. `crc` covers the whole table page with the field zeroed.
struct PageTablePageHeader {
  uint32_t crc = 0;
  uint32_t entry_count = 0;
};
static_assert(sizeof(PageTablePageHeader) == 8, "on-disk layout");

inline constexpr int64_t TableEntriesPerPage(uint32_t page_size) {
  return static_cast<int64_t>(
      (page_size - sizeof(PageTablePageHeader)) / sizeof(PageTableEntry));
}

inline constexpr int64_t MaxStreamsForPageSize(uint32_t page_size) {
  return static_cast<int64_t>(
      (page_size - sizeof(SuperblockHeader)) / sizeof(StreamEntry));
}

}  // namespace store
}  // namespace pane
