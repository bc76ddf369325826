#include "src/dump/format.h"

#include "src/util/checksum.h"
#include "src/util/serdes.h"

namespace bkup {

Result<std::vector<uint8_t>> DumpRecord::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kDumpRecordSize);
  ByteWriter w(&out);
  w.PutU32(kDumpMagic);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(inum);
  switch (type) {
    case DumpRecordType::kTapeHeader:
      w.PutU32(kDumpFormatVersion);
      w.PutU32(level);
      w.PutI64(dump_time);
      w.PutI64(base_time);
      w.PutU32(max_inodes);
      w.PutString(volume_name);
      w.PutString(snapshot_name);
      w.PutString(subtree);
      break;
    case DumpRecordType::kUsedMap:
    case DumpRecordType::kDumpedMap:
      w.PutU32(map_bytes);
      w.PutU32(map_inode_count);
      break;
    case DumpRecordType::kDirectory:
    case DumpRecordType::kInode:
    case DumpRecordType::kAddr:
      w.PutU8(static_cast<uint8_t>(attrs.type));
      w.PutU16(attrs.mode);
      w.PutU16(attrs.nlink);
      w.PutU32(attrs.uid);
      w.PutU32(attrs.gid);
      w.PutU64(attrs.size);
      w.PutI64(attrs.mtime);
      w.PutI64(attrs.atime);
      w.PutI64(attrs.ctime);
      w.PutU32(attrs.generation);
      w.PutString(symlink_target);
      w.PutU64(total_blocks);
      w.PutU64(first_fbn);
      w.PutU32(map_count);
      w.PutU32(present_count);
      w.PutU32(data_crc);
      w.PutU64(payload_bytes);
      if (map_count > kMapBitsPerRecord) {
        return InvalidArgument("record block map too large");
      }
      if (block_map.size() != (map_count + 7) / 8) {
        return InvalidArgument("block map size mismatch");
      }
      w.PutBytes(block_map);
      break;
    case DumpRecordType::kEnd:
      break;
  }
  if (out.size() + 4 > kDumpRecordSize) {
    return InvalidArgument("dump record overflows 1 KB header");
  }
  out.resize(kDumpRecordSize - 4, 0);
  const uint32_t crc = Crc32c(out);
  ByteWriter tail(&out);
  tail.PutU32(crc);
  return out;
}

Result<DumpRecord> DumpRecord::Parse(std::span<const uint8_t> bytes) {
  if (bytes.size() < kDumpRecordSize) {
    return Corruption("dump record truncated");
  }
  bytes = bytes.first(kDumpRecordSize);
  const uint32_t stored = static_cast<uint32_t>(bytes[kDumpRecordSize - 4]) |
                          static_cast<uint32_t>(bytes[kDumpRecordSize - 3]) << 8 |
                          static_cast<uint32_t>(bytes[kDumpRecordSize - 2]) << 16 |
                          static_cast<uint32_t>(bytes[kDumpRecordSize - 1]) << 24;
  if (Crc32c(bytes.first(kDumpRecordSize - 4)) != stored) {
    return Corruption("dump record checksum mismatch");
  }
  ByteReader r(bytes);
  DumpRecord rec;
  BKUP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kDumpMagic) {
    return Corruption("dump record bad magic");
  }
  BKUP_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadU8());
  if (type_raw < 1 || type_raw > static_cast<uint8_t>(DumpRecordType::kEnd)) {
    return Corruption("dump record bad type");
  }
  rec.type = static_cast<DumpRecordType>(type_raw);
  BKUP_ASSIGN_OR_RETURN(rec.inum, r.ReadU32());
  switch (rec.type) {
    case DumpRecordType::kTapeHeader: {
      BKUP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
      if (version != kDumpFormatVersion) {
        return Unsupported("dump format version mismatch");
      }
      BKUP_ASSIGN_OR_RETURN(rec.level, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.dump_time, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(rec.base_time, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(rec.max_inodes, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.volume_name, r.ReadString());
      BKUP_ASSIGN_OR_RETURN(rec.snapshot_name, r.ReadString());
      BKUP_ASSIGN_OR_RETURN(rec.subtree, r.ReadString());
      break;
    }
    case DumpRecordType::kUsedMap:
    case DumpRecordType::kDumpedMap: {
      BKUP_ASSIGN_OR_RETURN(rec.map_bytes, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.map_inode_count, r.ReadU32());
      break;
    }
    case DumpRecordType::kDirectory:
    case DumpRecordType::kInode:
    case DumpRecordType::kAddr: {
      BKUP_ASSIGN_OR_RETURN(uint8_t itype, r.ReadU8());
      if (itype > static_cast<uint8_t>(InodeType::kSymlink)) {
        return Corruption("dump record bad inode type");
      }
      rec.attrs.type = static_cast<InodeType>(itype);
      BKUP_ASSIGN_OR_RETURN(rec.attrs.mode, r.ReadU16());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.nlink, r.ReadU16());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.uid, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.gid, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.size, r.ReadU64());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.mtime, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.atime, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.ctime, r.ReadI64());
      BKUP_ASSIGN_OR_RETURN(rec.attrs.generation, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.symlink_target, r.ReadString());
      BKUP_ASSIGN_OR_RETURN(rec.total_blocks, r.ReadU64());
      BKUP_ASSIGN_OR_RETURN(rec.first_fbn, r.ReadU64());
      BKUP_ASSIGN_OR_RETURN(rec.map_count, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.present_count, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.data_crc, r.ReadU32());
      BKUP_ASSIGN_OR_RETURN(rec.payload_bytes, r.ReadU64());
      if (rec.map_count > kMapBitsPerRecord) {
        return Corruption("dump record map too large");
      }
      BKUP_ASSIGN_OR_RETURN(rec.block_map, r.ReadBytes((rec.map_count + 7) / 8));
      break;
    }
    case DumpRecordType::kEnd:
      break;
  }
  return rec;
}

uint64_t InodeMapStreamBytes(uint32_t num_inodes) {
  uint64_t bytes = (num_inodes + 7) / 8;
  return (bytes + 7) / 8 * 8;
}

uint64_t EncodedDumpDirectoryBytes(const std::vector<DirEntry>& entries) {
  // u32 count, then per entry: u32 inum, u8 type, u16-prefixed name.
  uint64_t bytes = 4;
  for (const DirEntry& e : entries) {
    bytes += 4 + 1 + 2 + e.name.size();
  }
  return bytes;
}

std::vector<uint8_t> EncodeDumpDirectory(const std::vector<DirEntry>& entries) {
  std::vector<uint8_t> out;
  out.reserve(EncodedDumpDirectoryBytes(entries));
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const DirEntry& e : entries) {
    w.PutU32(e.inum);
    w.PutU8(static_cast<uint8_t>(e.type));
    w.PutString(e.name);
  }
  return out;
}

Result<std::vector<DirEntry>> DecodeDumpDirectory(
    std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  BKUP_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  std::vector<DirEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DirEntry e;
    BKUP_ASSIGN_OR_RETURN(e.inum, r.ReadU32());
    BKUP_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadU8());
    if (type_raw > static_cast<uint8_t>(InodeType::kSymlink)) {
      return Corruption("bad entry type in dumped directory");
    }
    e.type = static_cast<InodeType>(type_raw);
    BKUP_ASSIGN_OR_RETURN(e.name, r.ReadString());
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace bkup
