// Snapshot persistence for the crash-recoverable service (DESIGN.md §11).
//
// A snapshot is a text artifact ("ltc-snapshot v2"): a header naming how
// many WAL events the captured engine state reflects, the engine's
// serialized live state (sharded_engine.h / stream_engine.h), and a CRC-32
// trailer over everything before it. A file of another version is
// discarded like a damaged one. Snapshots are written atomically
// (temp file + fsync + rename + directory fsync) so a crash mid-write can
// never shadow an older good snapshot, and the CRC turns a torn or
// bit-rotted file into a *detected* invalid snapshot that LoadLatest skips
// — recovery then falls back to the next older snapshot or, with none
// valid, to a full WAL replay.
//
// The store also maintains MANIFEST, a newest-last listing of the snapshot
// files it wrote — advisory (LoadLatest trusts the CRC, not the manifest)
// but it gives operators and the recovery log a one-file view of the
// retention state.

#ifndef LTC_SVC_SNAPSHOT_H_
#define LTC_SVC_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/snap_reader.h"
#include "common/status.h"

namespace ltc {
namespace svc {

/// \brief Atomic, CRC-guarded snapshot files in one state directory.
///
/// Single-threaded by contract: only the serving loop's engine thread
/// writes or loads snapshots (between event batches), so the store carries
/// no mutex and no LTC_GUARDED_BY annotations (DESIGN.md §14).
class SnapshotStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`.
  static StatusOr<SnapshotStore> Open(const std::string& dir);

  /// Writes `engine_state` as the snapshot for `events_applied` WAL events:
  /// frames it with the v2 header and CRC trailer, lands it atomically as
  /// snap-<events_applied>.snap, appends it to MANIFEST, and prunes all but
  /// the newest `retain` snapshots. Fault points: "snap.write",
  /// "snap.fsync".
  Status Write(std::int64_t events_applied, const std::string& engine_state,
               int retain = 2);

  /// What LoadLatest recovered.
  struct Loaded {
    bool found = false;
    std::int64_t events_applied = 0;
    /// The engine-state payload (header and trailer stripped).
    std::string engine_state;
    /// Snapshots skipped as torn/corrupt/unreadable before this one.
    int discarded = 0;
  };

  /// Scans the store newest-first and returns the first snapshot whose CRC
  /// and header validate (a v1 file from an older build does not).
  /// found == false (OK status) when none do — the caller falls back to
  /// full WAL replay.
  StatusOr<Loaded> LoadLatest() const;

  /// Snapshot files currently on disk, oldest first.
  std::vector<std::string> List() const;

  const std::string& dir() const { return dir_; }

 private:
  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
};

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_SNAPSHOT_H_
