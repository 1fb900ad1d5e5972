#include "protocol/trace.h"

#include "common/strings.h"

namespace nonserial {

const char* TraceEvent::KindName(Kind kind) {
  switch (kind) {
    case Kind::kValidated:
      return "validated";
    case Kind::kValidationWait:
      return "validation-wait";
    case Kind::kRead:
      return "read";
    case Kind::kWrite:
      return "write";
    case Kind::kReEval:
      return "re-eval";
    case Kind::kReAssign:
      return "re-assign";
    case Kind::kDeltaRevalidate:
      return "delta-revalidate";
    case Kind::kPoAbort:
      return "po-abort";
    case Kind::kCascadeAbort:
      return "cascade-abort";
    case Kind::kInjectedAbort:
      return "injected-abort";
    case Kind::kCommitWait:
      return "commit-wait";
    case Kind::kCommitted:
      return "committed";
    case Kind::kAborted:
      return "aborted";
    case Kind::kRetired:
      return "retired";
    case Kind::kLockGrant:
      return "lock-grant";
    case Kind::kLockBlock:
      return "lock-block";
    case Kind::kDeadlockVictim:
      return "deadlock-victim";
    case Kind::kGroupRelease:
      return "group-release";
    case Kind::kTsDraw:
      return "ts-draw";
    case Kind::kTsAbort:
      return "ts-abort";
    case Kind::kGroupStart:
      return "group-start";
    case Kind::kGroupCommit:
      return "group-commit";
    case Kind::kGroupReset:
      return "group-reset";
    case Kind::kCheckpoint:
      return "checkpoint";
    case Kind::kCompaction:
      return "compaction";
    case Kind::kCorruptionDetected:
      return "corruption-detected";
    case Kind::kWalBatchFlush:
      return "wal-batch-flush";
  }
  return "?";
}

std::string TraceEvent::ToString() const {
  std::string out;
  if (!protocol.empty()) out += StrCat("[", protocol, "] ");
  out += StrCat(KindName(kind), " tx=", tx);
  if (other >= 0) out += StrCat(" peer=", other);
  if (entity != kInvalidEntity) out += StrCat(" entity=", entity);
  if (kind == Kind::kRead || kind == Kind::kWrite ||
      kind == Kind::kValidated || kind == Kind::kTsDraw) {
    out += StrCat(" value=", value);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::OfKind(TraceEvent::Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) out.push_back(event);
  }
  return out;
}

std::map<std::string, std::map<std::string, int64_t>> TraceRecorder::Tally()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::map<std::string, int64_t>> out;
  for (const TraceEvent& event : events_) {
    ++out[event.protocol][TraceEvent::KindName(event.kind)];
  }
  return out;
}

}  // namespace nonserial
