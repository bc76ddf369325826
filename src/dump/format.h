// The logical dump tape format, modeled on the BSD dump format the paper
// describes (§3):
//
//   * The stream is a sequence of records. Every record starts with a 1 KB
//     header ("each file and directory is prefixed with 1KB of header
//     meta-data") carrying a magic number and a CRC, followed by zero or
//     more 4 KB data blocks.
//   * The tape is prefixed with two inode bitmaps: the inodes in use in the
//     dumped subtree (usedinomap — this is what lets incrementals detect
//     deletions) and the inodes actually written to the media (dumpinomap).
//   * All directories precede all files; both are written in ascending
//     inode order, with inode #2 as the root of the dump.
//   * File headers carry the attributes and a presence map of the file's
//     blocks (the "map of holes"); large files continue in kAddr records,
//     like BSD's TS_ADDR.
//
// Adaptation: BSD's hole map is 1 KB-granular; ours is 4 KB-granular because
// the file system has 4 KB blocks with no fragments (documented in
// DESIGN.md). Headers are self-identifying (magic + CRC + per-record data
// CRC), so a restore can skip a corrupted region and resynchronize at the
// next valid header — the property behind the paper's claim that "a minor
// tape corruption will usually affect only that single file".
#ifndef BKUP_DUMP_FORMAT_H_
#define BKUP_DUMP_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/layout.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace bkup {

inline constexpr uint32_t kDumpMagic = 0xD5B91999;  // dump stream, 1999
inline constexpr uint32_t kDumpFormatVersion = 1;
inline constexpr size_t kDumpRecordSize = 1024;  // the 1 KB header

// Block-presence bits carried by one inode/addr record. Limited so the
// header, attributes and a symlink target all fit in 1 KB.
inline constexpr uint32_t kMapBitsPerRecord = 4096;

enum class DumpRecordType : uint8_t {
  kTapeHeader = 1,  // start of stream (TS_TAPE)
  kUsedMap = 2,     // inodes in use at dump time (TS_BITS)
  kDumpedMap = 3,   // inodes present on this tape (TS_CLRI's complement)
  kDirectory = 4,   // a directory and its serialized entries
  kInode = 5,       // a file/symlink and its data (TS_INODE)
  kAddr = 6,        // continuation map for a large file (TS_ADDR)
  kEnd = 7,         // end of stream (TS_END)
};

// Attributes carried for every dumped inode; "file type, size, permissions,
// group, owner" as the paper lists, plus times, links and generation.
struct DumpInodeAttrs {
  InodeType type = InodeType::kFile;
  uint16_t mode = 0;
  uint16_t nlink = 1;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  int64_t mtime = 0;
  int64_t atime = 0;
  int64_t ctime = 0;
  uint32_t generation = 0;
};

// A parsed record header. Exactly kDumpRecordSize bytes on the stream.
struct DumpRecord {
  DumpRecordType type = DumpRecordType::kEnd;
  Inum inum = kInvalidInum;

  // kTapeHeader only.
  uint32_t level = 0;
  int64_t dump_time = 0;
  int64_t base_time = 0;  // previous dump's time (0 for level-0)
  uint32_t max_inodes = 0;
  std::string volume_name;
  std::string snapshot_name;
  std::string subtree;  // path of the dump root

  // kUsedMap / kDumpedMap: how many data bytes of bitmap follow.
  uint32_t map_bytes = 0;
  uint32_t map_inode_count = 0;

  // kDirectory / kInode / kAddr.
  DumpInodeAttrs attrs;        // kDirectory / kInode
  std::string symlink_target;  // kInode with type kSymlink
  uint64_t total_blocks = 0;   // file blocks overall (incl. holes)
  uint64_t first_fbn = 0;      // first block covered by this record's map
  uint32_t map_count = 0;      // presence bits in this record
  uint32_t present_count = 0;  // data blocks following this header
  uint32_t data_crc = 0;       // CRC-32C of the following data bytes
  // kDirectory: exact byte length of the encoded directory payload (which
  // is padded to a whole number of 1 KB tape blocks on the stream).
  uint64_t payload_bytes = 0;
  std::vector<uint8_t> block_map;  // ceil(map_count/8) presence bytes

  // Serializes to exactly kDumpRecordSize bytes (magic + payload + CRC).
  Result<std::vector<uint8_t>> Serialize() const;

  // Parses a kDumpRecordSize byte region; Corruption on bad magic/CRC.
  static Result<DumpRecord> Parse(std::span<const uint8_t> bytes);

  bool BlockPresent(uint32_t index) const {
    return (block_map[index / 8] >> (index % 8)) & 1;
  }
};

// Data bytes following a map record: ceil(bits/8), padded to 8-byte align.
uint64_t InodeMapStreamBytes(uint32_t num_inodes);

// Serialized directory payload for kDirectory records — the dump's own
// portable encoding, "a simple, known format of the file name followed by
// the inode number".
std::vector<uint8_t> EncodeDumpDirectory(const std::vector<DirEntry>& entries);
// Exact size of EncodeDumpDirectory's output, without encoding.
uint64_t EncodedDumpDirectoryBytes(const std::vector<DirEntry>& entries);
Result<std::vector<DirEntry>> DecodeDumpDirectory(
    std::span<const uint8_t> bytes);

}  // namespace bkup

#endif  // BKUP_DUMP_FORMAT_H_
