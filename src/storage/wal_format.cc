#include "storage/wal_format.h"

#include <array>
#include <cstring>

namespace nonserial {
namespace wal_format {
namespace {

/// Table-based CRC32, IEEE 802.3 reflected polynomial.
std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// ---- little-endian primitives ---------------------------------------------

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI32(int32_t v, std::string* out) { PutU32(static_cast<uint32_t>(v), out); }
void PutI64(int64_t v, std::string* out) { PutU64(static_cast<uint64_t>(v), out); }

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bounds-checked little-endian reader. Every Read* returns false once the
/// input is exhausted, so a corrupted length field degrades into a decode
/// failure instead of an out-of-bounds read.
class Reader {
 public:
  Reader(const char* data, size_t len) : data_(data), len_(len) {}

  size_t consumed() const { return pos_; }
  bool exhausted() const { return pos_ == len_; }

  bool ReadU8(uint8_t* v) {
    if (len_ - pos_ < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (len_ - pos_ < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (len_ - pos_ < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t n;
    if (!ReadU32(&n)) return false;
    if (n > len_ - pos_) return false;
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

// ---- payload bodies -------------------------------------------------------

/// Shared body of a kTxPayload record and a checkpoint's committed entry:
/// name, input_state, feeders, writes.
void PutTxBody(const std::string& name, const ValueVector& input_state,
               const std::vector<int>& feeders,
               const std::vector<std::pair<EntityId, Value>>& writes,
               std::string* out) {
  PutString(name, out);
  PutU32(static_cast<uint32_t>(input_state.size()), out);
  for (Value v : input_state) PutI64(v, out);
  PutU32(static_cast<uint32_t>(feeders.size()), out);
  for (int f : feeders) PutI32(f, out);
  PutU32(static_cast<uint32_t>(writes.size()), out);
  for (const auto& [e, v] : writes) {
    PutI32(e, out);
    PutI64(v, out);
  }
}

bool ReadTxBody(Reader* in, std::string* name, ValueVector* input_state,
                std::vector<int>* feeders,
                std::vector<std::pair<EntityId, Value>>* writes) {
  if (!in->ReadString(name)) return false;
  uint32_t n;
  if (!in->ReadU32(&n)) return false;
  input_state->clear();
  input_state->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t v;
    if (!in->ReadI64(&v)) return false;
    input_state->push_back(v);
  }
  if (!in->ReadU32(&n)) return false;
  feeders->clear();
  feeders->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t f;
    if (!in->ReadI32(&f)) return false;
    feeders->push_back(f);
  }
  if (!in->ReadU32(&n)) return false;
  writes->clear();
  writes->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t e;
    int64_t v;
    if (!in->ReadI32(&e) || !in->ReadI64(&v)) return false;
    writes->emplace_back(e, v);
  }
  return true;
}

std::string EncodeRecordPayload(const WalRecord& record) {
  std::string payload;
  switch (record.kind) {
    case WalRecord::Kind::kAppend:
      PutI32(record.writer, &payload);
      PutI32(record.entity, &payload);
      PutI64(record.value, &payload);
      break;
    case WalRecord::Kind::kCommit:
    case WalRecord::Kind::kRollback:
      PutI32(record.writer, &payload);
      break;
    case WalRecord::Kind::kTxPayload:
      PutI32(record.writer, &payload);
      PutTxBody(record.name, record.input_state, record.feeders, record.writes,
                &payload);
      break;
    case WalRecord::Kind::kCrash:
      break;
    case WalRecord::Kind::kCommitToken:
      PutI32(record.writer, &payload);
      PutU64(record.token, &payload);
      break;
  }
  return payload;
}

/// Decodes a record payload; the payload must be consumed exactly (trailing
/// bytes mean the frame lies about its contents).
bool DecodeRecordPayload(uint8_t kind, const char* data, size_t len,
                         WalRecord* out) {
  if (kind > static_cast<uint8_t>(WalRecord::Kind::kCommitToken)) return false;
  out->kind = static_cast<WalRecord::Kind>(kind);
  Reader in(data, len);
  switch (out->kind) {
    case WalRecord::Kind::kAppend: {
      int32_t writer, entity;
      int64_t value;
      if (!in.ReadI32(&writer) || !in.ReadI32(&entity) || !in.ReadI64(&value)) {
        return false;
      }
      out->writer = writer;
      out->entity = entity;
      out->value = value;
      break;
    }
    case WalRecord::Kind::kCommit:
    case WalRecord::Kind::kRollback: {
      int32_t writer;
      if (!in.ReadI32(&writer)) return false;
      out->writer = writer;
      break;
    }
    case WalRecord::Kind::kTxPayload: {
      int32_t writer;
      if (!in.ReadI32(&writer)) return false;
      out->writer = writer;
      if (!ReadTxBody(&in, &out->name, &out->input_state, &out->feeders,
                      &out->writes)) {
        return false;
      }
      break;
    }
    case WalRecord::Kind::kCrash:
      break;
    case WalRecord::Kind::kCommitToken: {
      int32_t writer;
      uint64_t token;
      if (!in.ReadI32(&writer) || !in.ReadU64(&token)) return false;
      out->writer = writer;
      out->token = token;
      break;
    }
  }
  return in.exhausted();
}

std::string EncodeCheckpointPayload(const WalCheckpoint& checkpoint) {
  std::string payload;
  PutU32(static_cast<uint32_t>(checkpoint.committed.size()), &payload);
  for (const RecoveredTx& tx : checkpoint.committed) {
    PutI32(tx.tx, &payload);
    PutU64(tx.commit_token, &payload);
    PutTxBody(tx.name, tx.input_state, tx.feeders, tx.writes, &payload);
  }
  PutU32(static_cast<uint32_t>(checkpoint.chains.size()), &payload);
  for (const auto& chain : checkpoint.chains) {
    PutU32(static_cast<uint32_t>(chain.size()), &payload);
    for (const auto& [writer, value] : chain) {
      PutI32(writer, &payload);
      PutI64(value, &payload);
    }
  }
  return payload;
}

/// `with_tokens` selects the layout by checkpoint version: v2 frames carry
/// a u64 commit token per committed entry, legacy (v1) frames do not — a
/// v1 entry decodes with commit_token == 0.
bool DecodeCheckpointPayload(const char* data, size_t len, bool with_tokens,
                             WalCheckpoint* out) {
  Reader in(data, len);
  uint32_t n;
  if (!in.ReadU32(&n)) return false;
  out->committed.clear();
  out->committed.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RecoveredTx tx;
    int32_t id;
    if (!in.ReadI32(&id)) return false;
    tx.tx = id;
    if (with_tokens && !in.ReadU64(&tx.commit_token)) return false;
    if (!ReadTxBody(&in, &tx.name, &tx.input_state, &tx.feeders, &tx.writes)) {
      return false;
    }
    out->committed.push_back(std::move(tx));
  }
  if (!in.ReadU32(&n)) return false;
  out->chains.clear();
  out->chains.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t chain_len;
    if (!in.ReadU32(&chain_len)) return false;
    std::vector<std::pair<int, Value>> chain;
    chain.reserve(chain_len);
    for (uint32_t j = 0; j < chain_len; ++j) {
      int32_t writer;
      int64_t value;
      if (!in.ReadI32(&writer) || !in.ReadI64(&value)) return false;
      chain.emplace_back(writer, value);
    }
    out->chains.push_back(std::move(chain));
  }
  return in.exhausted();
}

/// CRC over kind + len + payload (the integrity-relevant frame content; the
/// magic is covered by its own comparison).
uint32_t FrameCrc(uint8_t kind, const std::string& payload) {
  uint8_t prefix[5];
  prefix[0] = kind;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) prefix[1 + i] = (len >> (8 * i)) & 0xFF;
  uint32_t crc = Crc32(prefix, sizeof(prefix));
  return Crc32(reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
               crc);
}

void AppendFrame(uint8_t kind, const std::string& payload, std::string* out) {
  PutU32(kFrameMagic, out);
  PutU8(kind, out);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU32(FrameCrc(kind, payload), out);
  out->append(payload);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t crc) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void AppendRecordFrame(const WalRecord& record, std::string* out) {
  AppendFrame(static_cast<uint8_t>(record.kind), EncodeRecordPayload(record),
              out);
}

void AppendCheckpointFrame(const WalCheckpoint& checkpoint, std::string* out) {
  AppendFrame(kCheckpointFrameKindV2, EncodeCheckpointPayload(checkpoint),
              out);
}

void AppendSegmentHeader(uint64_t seq, bool lost, std::string* out) {
  const size_t start = out->size();
  PutU64(kSegmentMagic, out);
  PutU64(seq, out);
  PutU8(kSegmentFlagCrc | (lost ? kSegmentFlagLost : 0), out);
  PutU32(Crc32(reinterpret_cast<const uint8_t*>(out->data() + start),
               kSegmentHeaderBytes),
         out);
}

DecodedFrame DecodeFrame(const char* data, size_t len) {
  DecodedFrame result;
  if (len < kFrameHeaderBytes) {
    result.status = FrameStatus::kTruncated;
    return result;
  }
  Reader header(data, len);
  uint32_t magic, payload_len, crc;
  uint8_t kind;
  header.ReadU32(&magic);
  header.ReadU8(&kind);
  header.ReadU32(&payload_len);
  header.ReadU32(&crc);
  if (magic != kFrameMagic) {
    result.status = FrameStatus::kCorrupt;
    return result;
  }
  if (payload_len > kMaxPayloadBytes) {
    // A length this large is corruption, not truncation: no writer emits it.
    result.status = FrameStatus::kCorrupt;
    return result;
  }
  if (len - kFrameHeaderBytes < payload_len) {
    result.status = FrameStatus::kTruncated;
    return result;
  }
  const char* payload = data + kFrameHeaderBytes;
  std::string payload_copy(payload, payload_len);
  if (FrameCrc(kind, payload_copy) != crc) {
    result.status = FrameStatus::kCorrupt;
    return result;
  }
  result.frame_bytes = kFrameHeaderBytes + payload_len;
  if (kind == kCheckpointFrameKind || kind == kCheckpointFrameKindV2) {
    result.is_checkpoint = true;
    if (!DecodeCheckpointPayload(payload, payload_len,
                                 /*with_tokens=*/kind == kCheckpointFrameKindV2,
                                 &result.checkpoint)) {
      result.status = FrameStatus::kCorrupt;
      return result;
    }
  } else if (!DecodeRecordPayload(kind, payload, payload_len,
                                  &result.record)) {
    result.status = FrameStatus::kCorrupt;
    return result;
  }
  result.status = FrameStatus::kOk;
  return result;
}

bool DecodeSegmentHeader(const char* data, size_t len, SegmentHeader* out) {
  if (len < kSegmentHeaderBytes) return false;
  Reader in(data, len);
  uint64_t magic, seq;
  uint8_t flags;
  in.ReadU64(&magic);
  in.ReadU64(&seq);
  in.ReadU8(&flags);
  if (magic != kSegmentMagic) return false;
  // Unknown flag bits mean the byte is damaged (or from a future format
  // this code cannot interpret) — either way the header is undecodable.
  // Accepting them would let a single-bit flip pass silently.
  if ((flags & ~(kSegmentFlagLost | kSegmentFlagCrc)) != 0) return false;
  out->bytes = kSegmentHeaderBytes;
  if ((flags & kSegmentFlagCrc) != 0) {
    // A damaged seq must never pass for a valid one.
    uint32_t crc;
    if (!in.ReadU32(&crc) ||
        crc != Crc32(reinterpret_cast<const uint8_t*>(data),
                     kSegmentHeaderBytes)) {
      return false;
    }
    out->bytes += kSegmentHeaderCrcBytes;
  }
  out->seq = seq;
  out->lost = (flags & kSegmentFlagLost) != 0;
  return true;
}

std::vector<size_t> RecordEndOffsets(const std::string& image) {
  std::vector<size_t> offsets;
  size_t pos = 0;
  while (pos < image.size()) {
    SegmentHeader header;
    if (DecodeSegmentHeader(image.data() + pos, image.size() - pos, &header)) {
      pos += header.bytes;
      continue;
    }
    DecodedFrame frame = DecodeFrame(image.data() + pos, image.size() - pos);
    if (frame.status != FrameStatus::kOk) break;
    pos += frame.frame_bytes;
    if (!frame.is_checkpoint) offsets.push_back(pos);
  }
  return offsets;
}

}  // namespace wal_format
}  // namespace nonserial
