#include "src/image/image_format.h"

#include <algorithm>

#include "src/util/checksum.h"
#include "src/util/serdes.h"

namespace bkup {

namespace {

void SealBlock(std::vector<uint8_t>* payload, Block* out) {
  out->Zero();
  out->CopyFrom(*payload);
  const uint32_t crc = Crc32c(std::span(out->data).first(kBlockSize - 4));
  out->data[kBlockSize - 4] = static_cast<uint8_t>(crc);
  out->data[kBlockSize - 3] = static_cast<uint8_t>(crc >> 8);
  out->data[kBlockSize - 2] = static_cast<uint8_t>(crc >> 16);
  out->data[kBlockSize - 1] = static_cast<uint8_t>(crc >> 24);
}

Status CheckBlockCrc(const Block& block) {
  const uint32_t stored =
      static_cast<uint32_t>(block.data[kBlockSize - 4]) |
      static_cast<uint32_t>(block.data[kBlockSize - 3]) << 8 |
      static_cast<uint32_t>(block.data[kBlockSize - 2]) << 16 |
      static_cast<uint32_t>(block.data[kBlockSize - 1]) << 24;
  if (Crc32c(std::span(block.data).first(kBlockSize - 4)) != stored) {
    return Corruption("image stream block checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

Result<Block> ImageHeader::Serialize() const {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.PutU32(kImageMagic);
  w.PutU32(kImageFormatVersion);
  w.PutString(volume_name);
  w.PutU64(volume_blocks);
  w.PutU64(generation);
  w.PutI64(dump_time);
  w.PutU8(incremental ? 1 : 0);
  w.PutString(base_snapshot);
  w.PutU64(base_generation);
  w.PutString(snapshot_name);
  w.PutU64(block_count);
  w.PutU32(part_index);
  w.PutU32(part_count);
  if (bytes.size() + 4 > kBlockSize) {
    return InvalidArgument("image header too large");
  }
  Block out;
  SealBlock(&bytes, &out);
  return out;
}

Result<ImageHeader> ImageHeader::Parse(const Block& block) {
  BKUP_RETURN_IF_ERROR(CheckBlockCrc(block));
  ByteReader r(block.data);
  ImageHeader h;
  BKUP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kImageMagic) {
    return Corruption("image header bad magic");
  }
  BKUP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kImageFormatVersion) {
    return Unsupported("image format version mismatch");
  }
  BKUP_ASSIGN_OR_RETURN(h.volume_name, r.ReadString());
  BKUP_ASSIGN_OR_RETURN(h.volume_blocks, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(h.generation, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(h.dump_time, r.ReadI64());
  BKUP_ASSIGN_OR_RETURN(uint8_t incr, r.ReadU8());
  h.incremental = incr != 0;
  BKUP_ASSIGN_OR_RETURN(h.base_snapshot, r.ReadString());
  BKUP_ASSIGN_OR_RETURN(h.base_generation, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(h.snapshot_name, r.ReadString());
  BKUP_ASSIGN_OR_RETURN(h.block_count, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(h.part_index, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(h.part_count, r.ReadU32());
  if (h.part_count == 0 || h.part_index >= h.part_count) {
    return Corruption("image header bad part numbering");
  }
  return h;
}

std::array<uint8_t, ImageExtent::kEncodedSize> ImageExtent::Encode() const {
  std::vector<uint8_t> fields;
  fields.reserve(kEncodedSize);
  ByteWriter w(&fields);
  w.PutU32(kImageMagic ^ 0xFFFFFFFFu);  // extent marker
  w.PutU64(start);
  w.PutU32(count);
  w.PutU32(data_crc);
  // CRC over the fields so a damaged extent header is detectable.
  w.PutU32(Crc32c(fields));
  std::array<uint8_t, kEncodedSize> out{};  // zero-padded
  std::copy(fields.begin(), fields.end(), out.begin());
  return out;
}

Result<ImageExtent> ImageExtent::Decode(std::span<const uint8_t> bytes) {
  if (bytes.size() < kEncodedSize) {
    return Corruption("image extent truncated");
  }
  ByteReader r(bytes.first(kEncodedSize));
  ImageExtent e;
  BKUP_ASSIGN_OR_RETURN(uint32_t marker, r.ReadU32());
  if (marker != (kImageMagic ^ 0xFFFFFFFFu)) {
    return Corruption("image extent bad marker");
  }
  BKUP_ASSIGN_OR_RETURN(e.start, r.ReadU64());
  BKUP_ASSIGN_OR_RETURN(e.count, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(e.data_crc, r.ReadU32());
  const uint32_t computed = Crc32c(bytes.first(20));
  BKUP_ASSIGN_OR_RETURN(uint32_t stored, r.ReadU32());
  if (computed != stored) {
    return Corruption("image extent checksum mismatch");
  }
  return e;
}

Result<std::vector<uint8_t>> ImageTrailer::Serialize() const {
  std::vector<uint8_t> marker_bytes;
  ByteWriter w(&marker_bytes);
  w.PutU32(kImageMagic);
  w.PutU32(0x7EA11E12);  // trailer tag
  w.PutU64(block_count);
  Block marker;
  SealBlock(&marker_bytes, &marker);

  std::vector<uint8_t> out;
  out.reserve(kEncodedSize);
  out.insert(out.end(), marker.data.begin(), marker.data.end());
  out.insert(out.end(), fsinfo.data.begin(), fsinfo.data.end());
  return out;
}

Result<ImageTrailer> ImageTrailer::Parse(std::span<const uint8_t> bytes) {
  if (bytes.size() < kEncodedSize) {
    return Corruption("image trailer truncated");
  }
  Block marker;
  marker.CopyFrom(bytes.first(kBlockSize));
  BKUP_RETURN_IF_ERROR(CheckBlockCrc(marker));
  ByteReader r(marker.data);
  ImageTrailer t;
  BKUP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  BKUP_ASSIGN_OR_RETURN(uint32_t tag, r.ReadU32());
  if (magic != kImageMagic || tag != 0x7EA11E12) {
    return Corruption("image trailer bad marker");
  }
  BKUP_ASSIGN_OR_RETURN(t.block_count, r.ReadU64());
  t.fsinfo.CopyFrom(bytes.subspan(kBlockSize, kBlockSize));
  return t;
}

}  // namespace bkup
