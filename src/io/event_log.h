// Line-oriented arrival-event logs ("ltc-events v1"): the input format of
// the streaming service (svc::ShardedStreamEngine, the ltc_serve binary).
// Where a workload file (workload_io.h) is a closed-world snapshot, an event
// log is an *open* stream — tasks and workers materialise at their arrival
// times, which is what the batching deadline of micro-batch admission is
// measured against.
//
//   # ltc-events v1
//   epsilon 0.1
//   capacity 6
//   acc_min 0.66
//   accuracy sigmoid 30
//   events 4
//   t 0 12.5 40.25
//   w 0.37 5 6 0.92
//   m 1.02 0 14 40
//   w 2.4 8 3 0.88
//
// Records, all starting with a kind tag and an event time:
//   t <time> <x> <y>             task arrival; ids are assigned densely
//                                (0, 1, ...) in file order
//   w <time> <x> <y> <accuracy>  worker arrival; 1-based arrival indices
//                                are assigned in file order
//   m <time> <task_id> <x> <y>   task relocation (sensor drift, re-pinned
//                                POI); must reference an already-arrived task
// Event times must be non-decreasing. The header carries everything a
// ProblemInstance needs beyond the arrivals themselves, so a replayed log
// fully determines the materialised instance (DESIGN.md §8).

#ifndef LTC_IO_EVENT_LOG_H_
#define LTC_IO_EVENT_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "model/accuracy.h"
#include "model/problem.h"

namespace ltc {
namespace io {

/// One arrival-stream event.
struct Event {
  enum class Kind { kTaskArrival, kWorkerArrival, kTaskMove };

  Kind kind = Kind::kTaskArrival;
  /// Stream time (arbitrary units; non-decreasing within a log).
  double time = 0.0;
  geo::Point location;
  /// kWorkerArrival only: the worker's historical accuracy.
  double accuracy = 0.0;
  /// kTaskMove only: the task being relocated.
  model::TaskId task = -1;
};

/// \brief A parsed event log: the instance-level parameters plus the stream.
struct EventLog {
  double epsilon = 0.1;
  std::int32_t capacity = 6;
  double acc_min = model::kDefaultAccMin;
  /// Never null in a valid log.
  std::shared_ptr<const model::AccuracyFunction> accuracy;
  /// Time-ordered arrivals/moves.
  std::vector<Event> events;

  std::int64_t num_events() const {
    return static_cast<std::int64_t>(events.size());
  }

  /// Structural validation: parameters in range, times non-decreasing,
  /// worker accuracies in [0, 1], moves referencing already-arrived tasks.
  Status Validate() const;
};

/// Serialises the log into the v1 text format.
StatusOr<std::string> SerializeEventLog(const EventLog& log);

/// The v1 header block alone — "# ltc-events v1" through the accuracy line,
/// *without* the "events N" count line (ParseEventLog treats the count as
/// optional). This is the header a write-ahead log uses: a WAL's event count
/// is unknowable at open time (io/wal.h).
StatusOr<std::string> SerializeEventLogHeader(const EventLog& log);

/// Appends one v1 event record, newline-terminated, to `out` — the record
/// SerializeEventLog emits. Shared with the WAL appender and the wire
/// encoder, so a WAL is always a byte-prefix-compatible ltc-events file
/// and a socket payload is the same text. Doubles are %.17g bytes, written
/// by common::AppendDouble.
void AppendEventRecord(std::string* out, const Event& e);

/// Parses one v1 event record line ("t ...", "w ...", "m ...") — the
/// inverse of AppendEventRecord. Shared with the wire codec (net/frame.h)
/// so a socket payload is the same text a WAL or replay file holds.
StatusOr<Event> ParseEventRecord(std::string_view line);

/// Parses the v1 text format back into a log (validated).
StatusOr<EventLog> ParseEventLog(const std::string& text);

/// Writes SerializeEventLog output to a file.
Status SaveEventLog(const EventLog& log, const std::string& path);

/// Reads a file saved with SaveEventLog.
StatusOr<EventLog> LoadEventLog(const std::string& path);

/// Reads only the header of an ltc-events file: the instance parameters up
/// to the "events N" record (or the first event record, in a header-only
/// file such as a WAL), validated, with an empty events vector. The body
/// is never read, so it may be arbitrarily large — or malformed.
StatusOr<EventLog> LoadEventLogHeader(const std::string& path);

/// Converts a batch instance into an equivalent arrival stream: every task
/// arrives at time 0 (the paper's closed-world assumption) and worker i
/// arrives at time i * worker_spacing, preserving stream order. With
/// worker_spacing at least the engine's batching deadline, replaying the
/// log reproduces RunOnline's per-arrival admission exactly (asserted by
/// tests/svc_stream_test.cc).
StatusOr<EventLog> EventLogFromInstance(const model::ProblemInstance& instance,
                                        double worker_spacing = 1.0);

}  // namespace io
}  // namespace ltc

#endif  // LTC_IO_EVENT_LOG_H_
