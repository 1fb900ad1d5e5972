#ifndef NONSERIAL_STORAGE_EPOCH_RECLAIM_H_
#define NONSERIAL_STORAGE_EPOCH_RECLAIM_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace nonserial {

/// Epoch-based read-side reclamation for the lock-free storage read path
/// (see DESIGN.md, "cache-native evaluation").
///
/// The flat version chains publish their slabs through atomic pointers;
/// growing a chain installs a larger slab and *retires* the old one. A
/// retired slab cannot be freed while a reader that loaded the old pointer
/// is still walking it — instead of a reader-writer lock, readers announce
/// themselves in an epoch slot for the duration of the access:
///
///   EpochReclaimer::ReadGuard guard(&reclaimer);   // pin current epoch
///   ... load slab pointer, read slots ...          // no locks, no CAS loops
///                                                  // on the data itself
///
/// Writers retire with `Retire(ptr, deleter)`, which tags the object with
/// the current global epoch, advances the epoch, and frees every retired
/// object whose tag is older than the oldest pinned epoch. The guarantee:
///
///   * A reader whose pinned epoch is <= an object's retire tag may still
///     hold a pointer to it (the unlink raced its pointer load), so the
///     object stays allocated.
///   * A reader that pinned an epoch strictly greater than the tag
///     announced itself after the epoch advanced past the unlink, so its
///     pointer loads (which follow the announcement) can only observe the
///     replacement slab. Freeing the object is then safe.
///
/// The announcement protocol re-validates the global epoch after the slot
/// store (the classic read-prop race: load epoch, sleep, announce a stale
/// pin after the writer already scanned the slots). Slots are fixed
/// cache-line-padded cells probed from a thread-id hash, so guards from
/// different threads do not contend on one line; a full slot array (more
/// concurrent readers than kSlots) degrades to spinning, never to unsafety.
class EpochReclaimer {
 public:
  EpochReclaimer() = default;
  ~EpochReclaimer();

  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  /// RAII epoch pin. Cheap enough for per-read use: one uncontended CAS to
  /// claim a slot plus a validation load on entry, one store on exit.
  class ReadGuard {
   public:
    explicit ReadGuard(EpochReclaimer* reclaimer);
    ~ReadGuard();

    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    EpochReclaimer* reclaimer_;
    int slot_;
  };

  /// Retires `object`: tags it with the current epoch, advances the epoch,
  /// and frees every retired object proven unreachable (tag older than the
  /// oldest pinned epoch). `deleter` is invoked exactly once, possibly
  /// inside this call, possibly from a later Retire, at latest from the
  /// destructor. Thread-safe against concurrent guards and retires.
  void Retire(void* object, void (*deleter)(void*));

  /// Number of retired-but-not-yet-freed objects (tests/diagnostics).
  size_t PendingRetired() const;

  /// Total objects freed so far (tests/diagnostics).
  int64_t TotalFreed() const;

 private:
  // 128 padded slots: comfortably above the repo's worker counts, so guard
  // acquisition virtually never probes past its home slot.
  static constexpr int kSlots = 128;

  struct alignas(64) Slot {
    // 0 = quiescent; otherwise the epoch the occupying reader pinned.
    std::atomic<uint64_t> pinned{0};
  };

  struct Retired {
    void* object;
    void (*deleter)(void*);
    uint64_t tag;
  };

  /// Oldest epoch pinned by any active reader, or ~0 when none are active.
  uint64_t OldestPin() const;

  // Epochs start at 1 so a pinned value of 0 can mean "slot free".
  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kSlots];

  mutable std::mutex retire_mu_;
  std::vector<Retired> retired_;  // Guarded by retire_mu_.
  std::atomic<int64_t> freed_{0};
};

}  // namespace nonserial

#endif  // NONSERIAL_STORAGE_EPOCH_RECLAIM_H_
