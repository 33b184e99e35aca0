// In-memory span tracing for the perfbench harness, recorded from outside
// the library: the harness opens a span around each call it makes into a
// layer's public function, and TracingMetric opens one around each call the
// engine makes into its geo::Metric. Spans stay in memory and are written
// out (CSV) when the run ends.
//
// Single-threaded by contract: every workload runs the engine at
// threads=1, so the engine thread is the harness thread and the "current
// span" cursor needs no lock.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/metric.h"

namespace perfbench {

/// Span names: one per layer boundary the harness times.
enum SpanName : std::int32_t {
  kFrame = 0,      // one wire frame, the root of its request
  kEncode,         // net::EncodeEventsPayload
  kDecode,         // net::DecodeEventsPayload
  kWalAppend,      // io::EventLogWriter::Append
  kWalFlush,       // io::EventLogWriter::Flush
  kOnEvent,        // ShardedStreamEngine::OnEvent that only buffered
  kOnEventFlush,   // ShardedStreamEngine::OnEvent that ran a flush round
  kSerialize,      // ShardedStreamEngine::SerializeTo
  kSnapWrite,      // svc::SnapshotStore::Write
  kSnapLoad,       // svc::SnapshotStore::LoadLatest
  kRestore,        // ShardedStreamEngine::Restore
  kFinish,         // ShardedStreamEngine::Finish
  kRender,         // svc::RenderAssignmentLog
  kDistance,       // geo::Metric::Distance
  kLowerBound,     // geo::Metric::LowerBound
  kEligible,       // geo::Metric::EligibleWithin
  kNumSpanNames,
};

const char* SpanNameString(std::int32_t name);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int32_t name = 0;
  std::int32_t parent = -1;  // index into the span vector, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name aggregates over a trace.
struct SpanStats {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus time covered by child spans
  std::vector<double> durations_us;
};

class Tracer {
 public:
  /// Opens a span under the current one and makes it current.
  std::int32_t Begin(std::int32_t name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, current_, NowNs(), 0});
    current_ = id;
    return id;
  }
  /// Closes span `id` (the current one) and returns to its parent.
  void End(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = NowNs();
    current_ = s.parent;
  }
  /// Renames an open or closed span (an OnEvent is classified as a flush
  /// round only after it returns).
  void Rename(std::int32_t id, std::int32_t name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Aggregates by name, with self time.
  std::vector<SpanStats> Stats() const;
  /// Sum of root-span durations (time the trace accounts for).
  std::int64_t RootNs() const;
  /// Writes "id,parent,name,start_ns,end_ns" lines.
  ltc::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::int32_t name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// A geo::Metric decorator that records a span per call. Only ever wraps
/// a non-Euclidean metric: wrapping the Euclidean one would report
/// euclidean() == false and switch the engine off its fast path.
/// EligibleWithin runs the base-class superset-then-filter query, which is
/// exactly what RoadMetric inherits, so its Distance calls land in this
/// decorator as child spans of the EligibleWithin span.
class TracingMetric final : public ltc::geo::Metric {
 public:
  TracingMetric(std::shared_ptr<const ltc::geo::Metric> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double Distance(const ltc::geo::Point& a,
                  const ltc::geo::Point& b) const override {
    ScopedSpan span(tracer_, kDistance);
    return inner_->Distance(a, b);
  }
  double LowerBound(const ltc::geo::Point& a,
                    const ltc::geo::Point& b) const override {
    ScopedSpan span(tracer_, kLowerBound);
    return inner_->LowerBound(a, b);
  }
  void EligibleWithin(
      const ltc::geo::GridIndex& grid, const ltc::geo::Point& origin,
      double radius,
      const std::function<void(std::int64_t)>& visit) const override {
    ScopedSpan span(tracer_, kEligible);
    Metric::EligibleWithin(grid, origin, radius, visit);
  }
  bool euclidean() const override { return inner_->euclidean(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::shared_ptr<const ltc::geo::Metric> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
