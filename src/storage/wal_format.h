#ifndef NONSERIAL_STORAGE_WAL_FORMAT_H_
#define NONSERIAL_STORAGE_WAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/wal.h"

namespace nonserial {
namespace wal_format {

/// On-media layout of the write-ahead log. The log is a sequence of
/// segments; a segment is a header followed by frames; a frame is a
/// length-prefixed, CRC-protected record:
///
///   segment header:  magic u64 | seq u64 | flags u8 | crc u32  (21 bytes)
///   frame:           magic u32 | kind u8 | len u32 | crc u32 | payload
///
/// The header CRC covers magic, seq and flags; the kSegmentFlagCrc flag
/// bit announces it. A v1 header (no such flag, 17 bytes) still decodes.
/// The CRC32 (IEEE 802.3 polynomial) covers kind, len, and the payload, so
/// any single corrupted byte outside the frame magic fails the check; a
/// corrupted magic fails the magic check instead. All integers are
/// little-endian. The segment magic is 8 bytes so a frame payload (which
/// contains arbitrary 64-bit values and CRCs) colliding with a segment
/// boundary during image resync is astronomically unlikely.

inline constexpr uint64_t kSegmentMagic = 0x4747'4553'4C41'574Eull;
inline constexpr uint32_t kFrameMagic = 0x4C41'574Eu;  // "NWAL"
/// A v1 segment header; a v2 header adds kSegmentHeaderCrcBytes.
inline constexpr size_t kSegmentHeaderBytes = 8 + 8 + 1;
inline constexpr size_t kSegmentHeaderCrcBytes = 4;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;
inline constexpr uint8_t kSegmentFlagLost = 0x01;
inline constexpr uint8_t kSegmentFlagCrc = 0x02;
/// Frame kind byte for a legacy (v1) checkpoint (record kinds use
/// WalRecord::Kind). V1 committed entries carry no commit token; decoding
/// one yields commit_token == 0 for every transaction. Kept decodable so
/// WALs checkpointed by pre-token builds still recover.
inline constexpr uint8_t kCheckpointFrameKind = 0xC5;
/// Frame kind byte for a v2 checkpoint: each committed entry carries its
/// u64 commit token between the tx id and the tx body. The kind byte is
/// the format version — writers emit v2, readers accept both.
inline constexpr uint8_t kCheckpointFrameKindV2 = 0xC6;
/// Upper bound on a sane payload (guards length-field corruption from
/// driving allocations).
inline constexpr uint32_t kMaxPayloadBytes = 1u << 28;

/// CRC32 (reflected, IEEE polynomial 0xEDB88320), seedable for chaining.
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t crc = 0);

/// Serializes one record as a frame appended to `*out`.
void AppendRecordFrame(const WalRecord& record, std::string* out);

/// Serializes a checkpoint as a frame appended to `*out`.
void AppendCheckpointFrame(const WalCheckpoint& checkpoint, std::string* out);

/// Serializes a (v2, CRC-protected) segment header appended to `*out`.
void AppendSegmentHeader(uint64_t seq, bool lost, std::string* out);

enum class FrameStatus : uint8_t {
  kOk,         ///< Frame decoded; `frame_bytes` consumed.
  kTruncated,  ///< The bytes end mid-frame (torn write / byte-prefix cut).
  kCorrupt     ///< Bad magic, CRC mismatch, or malformed payload.
};

struct DecodedFrame {
  FrameStatus status = FrameStatus::kOk;
  size_t frame_bytes = 0;  ///< Total encoded size (header + payload).
  bool is_checkpoint = false;
  WalRecord record;          ///< When !is_checkpoint.
  WalCheckpoint checkpoint;  ///< When is_checkpoint.
};

/// Decodes the frame starting at data[0]. `len` bytes are available.
DecodedFrame DecodeFrame(const char* data, size_t len);

struct SegmentHeader {
  uint64_t seq = 0;
  bool lost = false;
  size_t bytes = 0;  ///< Encoded size: v1 or v2.
};

/// Decodes a segment header at data[0]; false if truncated, or damaged:
/// bad magic, unknown flag bits, or a header CRC mismatch.
bool DecodeSegmentHeader(const char* data, size_t len, SegmentHeader* out);

/// Image offsets immediately after each *record* frame (checkpoint frames
/// and segment headers are skipped over, not listed). Walks the image with
/// full format knowledge and stops at the first undecodable byte — tests
/// use this to map a corrupted byte offset to the record prefix a
/// defensive recovery must salvage.
std::vector<size_t> RecordEndOffsets(const std::string& image);

}  // namespace wal_format
}  // namespace nonserial

#endif  // NONSERIAL_STORAGE_WAL_FORMAT_H_
