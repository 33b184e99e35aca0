// The streaming service layer's core (DESIGN.md §8): the service options,
// the deterministic records a run emits, and StreamPipeline — the
// per-shard core that ShardedStreamEngine (sharded_engine.h, DESIGN.md §9)
// runs K of, one per stripe (K = 1 is the unsharded service).
//
// Where sim::RunOnline replays a fully materialised ProblemInstance, a
// pipeline consumes worker/task *arrival events* one at a time, grows one
// ProblemInstance in place, maintains an **incremental** spatial index over
// the open tasks (geo::GridIndex dynamic mode — tasks are Inserted on
// arrival, Removed on completion, Relocated on "m" events; never rebuilt),
// and admits workers in micro-batches closed by a configurable batching
// deadline. The admitted workers are driven through the existing online
// schedulers via the streaming protocol of algo/scheduler.h; per-assignment
// latency (commit time minus the assigned task's arrival time) feeds
// sim::RunMetrics.
//
// Determinism contract: every schedule-dependent output — the assignment
// log, per-assignment latencies, completion counts — is a function of
// (event log, options.algorithm, options.seed, options.shards) only,
// bit-identical for any options.threads value. Candidate gathering is a
// pure read of flush-time state fanned out over a common::ThreadPool into
// index-addressed slots; commits happen sequentially in arrival order
// within a pipeline (the PR-3 discipline).

#ifndef LTC_SVC_STREAM_ENGINE_H_
#define LTC_SVC_STREAM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "algo/scheduler.h"
#include "common/status.h"
#include "fcst/arrival_forecast.h"
#include "geo/grid_index.h"
#include "geo/metric.h"
#include "geo/rect.h"
#include "io/event_log.h"
#include "model/problem.h"
#include "model/worker_route.h"
#include "sim/metrics.h"
#include "svc/snapshot.h"

namespace ltc {
namespace svc {

/// How the batching deadline of an open micro-batch is chosen.
enum class DeadlinePolicy {
  /// Every batch flushes exactly batch_deadline after it opens (the classic
  /// PR-4 behaviour).
  kFixed,
  /// Prediction-driven admission (DESIGN.md §13): batch_deadline becomes a
  /// hard latency cap, and the per-cell arrival forecast the pipeline
  /// maintains (fcst/arrival_forecast.h) positions the flush inside it —
  /// each buffered arrival extends the open batch's flush to its predicted
  /// next-arrival instant (never past the cap), and a quiet cell (expected
  /// wait beyond the cap) flushes the batch immediately. Flush times are a
  /// pure function of the event prefix, so the determinism contract — and
  /// the recovery contract, with forecast state snapshotted — survives.
  kAdaptive,
};

/// Service configuration.
struct StreamOptions {
  /// Online scheduler driven per admitted worker ("LAF", "AAM", "Random"),
  /// or the batch-protocol streaming MCF-LTC ("MCF", DESIGN.md §10),
  /// driven per flushed micro-batch.
  std::string algorithm = "LAF";
  /// A batch flushes once its oldest buffered worker has waited this long
  /// (stream time units). 0 admits every worker immediately — per-arrival
  /// admission, the RunOnline-equivalent setting. Larger deadlines trade
  /// worker waiting time for richer per-batch context. Under
  /// DeadlinePolicy::kAdaptive this is the hard cap (must be > 0).
  double batch_deadline = 0.0;
  /// Deadline policy (kAdaptive = forecast-driven flushes; --deadline=
  /// adaptive in ltc_serve).
  DeadlinePolicy deadline_policy = DeadlinePolicy::kFixed;
  /// kAdaptive only: EWMA time constant of the arrival forecast, in stream
  /// time units (fcst::CellRateEstimator::Config::horizon).
  double forecast_horizon = 8.0;
  /// Flush early when this many workers are buffered (0 = unbounded).
  std::int64_t max_batch = 0;
  /// Seed forwarded to seeded algorithms (Random). Never derived from
  /// thread identity.
  std::uint64_t seed = 42;
  /// Candidate-gathering threads (0 = hardware concurrency). Output is
  /// bit-identical for every value.
  int threads = 1;
  /// Spatial shards (grid-aligned stripes; DESIGN.md §9): the number of
  /// pipelines ShardedStreamEngine runs (1 = one pipeline over the whole
  /// world). The assignment log is pinned per K and byte-identical across
  /// threads.
  int shards = 1;
  /// World rectangle fixing the incremental grid's geometry for the
  /// engine's lifetime (arrivals outside it clamp into boundary cells,
  /// which stays correct — see geo/grid_index.h). ReplayEventLog widens it
  /// to cover the log; the default covers the Table-IV synthetic world.
  geo::Rect world{0.0, 0.0, 1000.0, 1000.0};
  /// Validate the arrangement against every LTC constraint at Finish.
  /// Skipped (with a note in the metrics) when the stream moved tasks:
  /// validation recomputes Acc* from final locations, which legitimately
  /// disagrees with values committed before a move.
  bool validate = true;
  /// "MCF" only: carry flow and node potentials across the scheduler's
  /// internal Theorem-2 batches (false forces a from-scratch solve per
  /// batch — the ablation baseline; the assignment log is identical).
  bool mcf_warm_start = true;
  /// "MCF" only: cross-check every Nth warm batch solve against an
  /// independent from-scratch solve, CHECK-failing on divergence (see
  /// flow::IncrementalMcmfOptions::drift_check_every). 0 disables.
  int mcf_drift_check_every = 0;
  /// Route-aware workers (DESIGN.md §12): committed assignments grow a
  /// model::WorkerRoute per worker (cheapest insertion under the accuracy
  /// model's geo::Metric), and the engine emits deterministic worker
  /// `move` events as unit-speed route progress crosses flush boundaries.
  /// Off by default — the assignment log and snapshot bytes are unchanged
  /// when false.
  bool route_workers = false;
};

/// One committed assignment, in commit order — the deterministic record the
/// ltc_serve assignment log serialises. Worker and task are *global*
/// identities (arrival index / dense event-log id) in every mode; sharded
/// pipelines translate from their local ids before emitting.
struct StreamAssignment {
  /// Batch flush (commit) time.
  double time = 0.0;
  model::WorkerIndex worker = 0;
  model::TaskId task = 0;
};

/// One worker-route progress record (route_workers mode only): worker
/// (global arrival index) reached `location` — the stop serving `task` —
/// at stream time `time`. The merged move log is sorted by (time, worker),
/// ties kept in route order, and is a pure function of the same inputs as
/// the assignment log (model/worker_route.h's determinism contract).
struct WorkerMove {
  double time = 0.0;
  model::WorkerIndex worker = 0;
  geo::Point location;
  model::TaskId task = 0;
};

/// Counters and latency distributions of one stream run.
struct StreamMetrics {
  std::int64_t events = 0;
  std::int64_t task_events = 0;
  std::int64_t worker_events = 0;
  std::int64_t move_events = 0;
  std::int64_t batches = 0;
  std::int64_t max_batch_size = 0;
  std::int64_t assignments = 0;
  std::int64_t tasks_completed = 0;
  /// Tasks still short of delta when the stream ended.
  std::int64_t open_tasks = 0;
  double last_event_time = 0.0;
  /// Spatial shards the run was served with (1 = unsharded).
  std::int64_t shards = 1;
  /// Workers whose eligibility disk crossed a stripe edge (offered to more
  /// than one shard under the handoff protocol; 0 when shards == 1).
  std::int64_t boundary_workers = 0;
  /// Shard offers dropped because another shard had already claimed the
  /// worker (one worker can contribute to several skips).
  std::int64_t handoff_skips = 0;
  /// route_workers mode: stops reached (move records emitted) by Finish.
  std::int64_t worker_moves = 0;
  /// route_workers mode: workers holding a route (>= 1 assignment).
  std::int64_t routed_workers = 0;
  /// route_workers mode: total metric travel time over all routes.
  double route_travel_time = 0.0;
  /// Adaptive-deadline mode: batches flushed at an arrival instant because
  /// the local forecast predicted no useful arrival within the cap.
  std::int64_t quiet_flushes = 0;
  /// Adaptive-deadline mode: buffered arrivals that extended an already
  /// open batch's flush instant.
  std::int64_t deadline_extensions = 0;
  /// Commit time minus assigned task's arrival time, per assignment.
  sim::LatencySummary assignment_latency;
  /// Completing commit time minus arrival time, per completed task.
  sim::LatencySummary completion_latency;
  /// True when Finish ran the full arrangement validation.
  bool validated = false;
};

/// Consumes every future in *futures, converting the first thrown
/// exception into an Internal status. Every fan-out in the svc layer MUST
/// drain its futures through this (no early return past a live future): an
/// abandoned future's task would still run from the pool's
/// drain-on-destruction and touch engine state that is destroyed before
/// the pool member. `what` names the fan-out in the error ("gather",
/// "commit").
Status ConsumeFutures(std::vector<std::future<void>>* futures,
                      const char* what);

/// \brief The per-pipeline core: one growing instance, one streaming
/// scheduler, one incremental open-task index, one micro-batch buffer.
///
/// ShardedStreamEngine runs K of them side by side. The engine owns event
/// routing, flush scheduling and the thread pool; the pipeline owns every
/// id-translated, shard-local piece of state. Not movable once
/// created (the scheduler holds a pointer into the growing instance).
///
/// Thread-safety contract: all mutating calls are engine-thread-only,
/// except that (a) GatherSlot calls with distinct slot indices may run
/// concurrently once the engine stopped mutating, and (b) CommitBatch
/// calls on *different* pipelines may run concurrently (a pipeline touches
/// only its own state). This affinity protocol — not a mutex — is the
/// synchronisation story here, which is why no member carries
/// LTC_GUARDED_BY: there is no capability to guard with, and a lock would
/// be pure overhead on the hot path (DESIGN.md §14). The determinism tests
/// (byte-identical logs for any --threads) are what pin the protocol.
class StreamPipeline {
 public:
  struct Config {
    /// The service options every pipeline of an engine shares.
    /// options.shards is the shard count forwarded to the scheduler, and
    /// options.world the incremental grid's geometry (the full world
    /// rectangle — shards own a stripe of *tasks*, not a cropped grid).
    /// Under DeadlinePolicy::kAdaptive the pipeline maintains a
    /// fcst::CellRateEstimator over that grid and owns its batch's flush
    /// instant.
    StreamOptions options;
    /// Shard identity forwarded to the scheduler (0 when unsharded).
    int shard_id = 0;
    /// Cell size for the incremental grid; nullopt = scan fallback.
    std::optional<double> cell_size;
  };

  /// Creates a pipeline for a stream with `header`'s instance parameters.
  static StatusOr<std::unique_ptr<StreamPipeline>> Create(
      const io::EventLog& header, const Config& config);

  /// Serializes the pipeline's live state (DESIGN.md §11): the dense
  /// task and worker id-space sizes, the open tasks (arrival times and
  /// *current* locations), the workers some live state still references
  /// (the open batch, the scheduler's state, an unfinished route), the
  /// open micro-batch, the counters, the latency samples, the scheduler's
  /// own SerializeState blob, the unfinished routes, and the forecast.
  /// Closed tasks and unreferenced workers are history the WAL holds; the
  /// snapshot keeps only how many there were. The grid index is NOT
  /// serialized — it is derived state, rebuilt over the open set on
  /// restore (bucket contents stay ascending by id either way, so queries
  /// match; geo/grid_index.h). Only call between events: the per-round
  /// pending_* buffers must be empty.
  Status SerializeTo(std::string* out) const;

  /// Counterpart of SerializeTo: rebuilds a pipeline from a serialized
  /// block at *reader (advancing it past the block). Closed tasks and
  /// unreferenced workers come back as inert placeholders, so local ids,
  /// instance().num_workers() and every later log byte are unchanged; the
  /// id-space sizes are bounded by the engine's `max_tasks` and
  /// `max_workers`. The restored pipeline is commitment-for-commitment
  /// indistinguishable from one that lived through the whole stream
  /// prefix (svc_recovery_test pins this).
  static StatusOr<std::unique_ptr<StreamPipeline>> Restore(
      const io::EventLog& header, const Config& config,
      std::int64_t max_tasks, std::int64_t max_workers, snap::Reader* reader);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  // --- Stream mutations (engine thread only) ---

  /// Appends the task with global id `global_id`; returns its local id.
  StatusOr<model::TaskId> AddTask(model::TaskId global_id, double time,
                                  const geo::Point& location);
  /// Relocates local task `local_id` (grid update only while it is open).
  Status MoveTask(model::TaskId local_id, const geo::Point& location);
  /// Appends the worker (global arrival index `global_index`) and buffers
  /// it into the open batch. *flush_now reports that the batch must flush
  /// at this arrival's instant: it reached config.max_batch, the fixed
  /// deadline is 0 (per-arrival admission), or — adaptive policy — the
  /// forecast predicts no useful arrival within the cap (quiet cell).
  Status BufferWorker(model::WorkerIndex global_index,
                      const geo::Point& location, double accuracy,
                      double time, bool* flush_now);

  // --- Open-batch inspection ---

  bool has_open_batch() const { return !batch_.empty(); }
  double batch_open_time() const { return batch_open_time_; }
  /// The instant the open batch is due to flush: open time + the fixed
  /// deadline, or — adaptive policy — the forecast-positioned instant
  /// (open time + cap at most). Meaningful only while has_open_batch().
  double batch_flush_time() const {
    return config_.options.deadline_policy == DeadlinePolicy::kAdaptive
               ? batch_flush_time_
               : batch_open_time_ + config_.options.batch_deadline;
  }
  std::size_t batch_size() const { return batch_.size(); }
  model::WorkerIndex batch_global_worker(std::size_t i) const {
    return worker_global_[static_cast<std::size_t>(batch_[i]) - 1];
  }

  // --- Flush phases ---

  /// Sizes the gather slots for the open batch. Engine thread, before any
  /// concurrent GatherSlot.
  void PrepareGather();
  /// Fills slot `i` with batch worker i's eligible open tasks (local ids,
  /// ascending). Pure read of pipeline state; concurrent calls with
  /// distinct `i` are safe.
  void GatherSlot(std::size_t i);
  /// Empties slot `i` (handoff: another shard claimed the worker).
  void ClearSlot(std::size_t i) { gather_slots_[i].clear(); }
  bool SlotEmpty(std::size_t i) const { return gather_slots_[i].empty(); }

  /// Commits the batch at `flush_time`: drives the scheduler per buffered
  /// worker in arrival order over the gathered slots (or hands the whole
  /// batch to a SchedulesWholeBatch scheduler), records pending
  /// assignments/closures, closes completed tasks. Safe to run
  /// concurrently with other pipelines' CommitBatch.
  Status CommitBatch(double flush_time);

  /// End of stream (engines call it once, after the final batch flush):
  /// drains a batch scheduler's internally buffered workers — its final
  /// partial Theorem-2 batch — committing at `end_time`. No-op for
  /// per-worker schedulers. Safe to run concurrently with other pipelines'
  /// CommitStreamEnd.
  Status CommitStreamEnd(double end_time);

  // --- Per-round outputs (engine merges after CommitBatch, then clears) ---

  /// Assignments committed by the last CommitBatch, global ids, commit
  /// order.
  std::vector<StreamAssignment>& pending_assignments() {
    return pending_assignments_;
  }
  /// Global ids of tasks closed by the last CommitBatch.
  std::vector<model::TaskId>& pending_closed() { return pending_closed_; }
  /// route_workers mode: moves emitted by the last CommitBatch /
  /// CommitStreamEnd (route progress that crossed the flush instant), in
  /// per-worker route order. Always empty when routing is off.
  std::vector<WorkerMove>& pending_moves() { return pending_moves_; }

  // --- Finish-time accessors ---

  /// Full arrangement validation over the pipeline's local instance (no-op
  /// when the pipeline holds no tasks).
  Status Validate() const;

  const model::ProblemInstance& instance() const { return instance_; }
  const model::Arrangement& arrangement() const {
    return scheduler_->arrangement();
  }
  bool spatial() const { return grid_.has_value(); }
  std::int64_t batches() const { return batches_; }
  std::int64_t max_batch_size() const { return max_batch_size_; }
  std::int64_t tasks_completed() const { return tasks_completed_; }
  /// Adaptive-deadline mode counters (0 under kFixed).
  std::int64_t quiet_flushes() const { return quiet_flushes_; }
  std::int64_t deadline_extensions() const { return deadline_extensions_; }
  /// The pipeline's arrival forecast (null under kFixed). Also installed
  /// into the scheduler via algo::OnlineScheduler::InstallForecast.
  const fcst::ArrivalForecast* forecast() const {
    return forecast_.has_value() ? &*forecast_ : nullptr;
  }
  std::int64_t open_tasks() const;
  /// Distinct (local) workers holding at least one assignment.
  std::int64_t workers_used() const;
  /// route_workers mode: workers that ever held a route.
  std::int64_t routed_workers() const { return routes_created_; }
  /// route_workers mode: total metric travel time over all routes, summed
  /// in ascending local-worker order.
  double route_travel_time() const { return route_travel_time_; }
  std::vector<double>* mutable_assignment_latency_samples() {
    return &assignment_latency_samples_;
  }
  std::vector<double>* mutable_completion_latency_samples() {
    return &completion_latency_samples_;
  }

 private:
  explicit StreamPipeline(const Config& config) : config_(config) {}

  /// Adaptive policy only: builds the cell-rate estimator over the grid
  /// geometry and installs it into the scheduler (no-op under kFixed).
  /// Create and Restore both route through this so a restored pipeline
  /// forecasts identically.
  Status InitForecast();

  /// Marks completed-but-open tasks of `assigned` (local ids) closed.
  void CloseCompleted(const std::vector<model::TaskId>& assigned,
                      double flush_time);

  /// route_workers mode: advances every route with a stop due at or
  /// before `now`, emitting a WorkerMove per newly reached stop into
  /// pending_moves_ (ascending local-worker order; the engine's final
  /// (time, worker) sort fixes the global order). Visits only the routes
  /// route_due_ names, not every route.
  void AdvanceRoutes(double now);
  /// Adds the cost of every route created since the last call to
  /// route_travel_time_, in ascending local-worker order. Called at the
  /// end of each commit, once those routes' costs are final.
  void FoldNewRoutes();
  /// Queues local worker `w`'s route under its next stop's reach time
  /// (no-op when the route is done).
  void QueueRoute(model::WorkerIndex w, const model::WorkerRoute& route);
  /// route_workers mode: grows (or creates, anchored at the worker's
  /// check-in location and `time`) local worker `w`'s route by cheapest
  /// insertion of local task `t`. Cost is measured from the route's
  /// insertion point — a second task committed to the same worker pays the
  /// marginal detour, not the from-origin distance.
  void RouteAssignment(model::WorkerIndex w, model::TaskId t, double time);

  /// Folds one batch-protocol commitment list into the pending records at
  /// `time` (assignment log, latency samples, closures).
  void RecordCommits(const std::vector<algo::OnlineScheduler::StreamCommit>&
                         commits,
                     double time);

  Config config_;
  model::ProblemInstance instance_;  // grows in place; never reallocated as
                                     // a whole (schedulers hold a pointer)
  std::unique_ptr<algo::OnlineScheduler> scheduler_;
  std::optional<geo::GridIndex> grid_;  // open tasks; nullopt = scan fallback
  std::vector<char> open_;              // open_[local]: arrived, below delta
  std::vector<double> task_arrival_time_;      // by local task id
  std::vector<model::TaskId> task_global_;     // local task -> global id
  std::vector<model::WorkerIndex> worker_global_;  // local-1 -> global index

  // Open batch: local worker indices of buffered arrivals.
  std::vector<model::WorkerIndex> batch_;
  double batch_open_time_ = 0.0;
  // Adaptive-deadline state (engaged only under DeadlinePolicy::kAdaptive;
  // DESIGN.md §13). batch_flush_time_ is the open batch's current flush
  // instant, repositioned per buffered arrival and capped at
  // batch_open_time_ + batch_deadline.
  std::optional<fcst::CellRateEstimator> forecast_;
  double batch_flush_time_ = 0.0;
  std::int64_t quiet_flushes_ = 0;
  std::int64_t deadline_extensions_ = 0;

  std::vector<std::vector<model::TaskId>> gather_slots_;
  std::vector<model::TaskId> assigned_scratch_;
  // Batch-protocol scratch (SchedulesWholeBatch schedulers only).
  std::vector<const std::vector<model::TaskId>*> candidate_ptrs_;
  std::vector<algo::OnlineScheduler::StreamCommit> commits_scratch_;
  std::vector<StreamAssignment> pending_assignments_;
  std::vector<model::TaskId> pending_closed_;
  // Route state (route_workers only; empty otherwise): the routes with
  // stops still ahead, ordered by local worker index so advancement and
  // serialization are deterministic. A route leaves the map when its last
  // stop is reached; the counters below keep what the outputs need of it.
  std::map<model::WorkerIndex, model::WorkerRoute> routes_;
  std::vector<model::WorkerIndex> new_routes_;  // created this commit
  std::int64_t routes_created_ = 0;
  double route_travel_time_ = 0.0;
  // Min-queue of (next stop reach time, local worker): every unfinished
  // route has an entry at its current next reach time, and an insertion
  // that re-times a route leaves its old entry behind as stale (dropped
  // when popped). Derived state: not serialized, rebuilt by Restore.
  using RouteDue = std::pair<double, model::WorkerIndex>;
  std::priority_queue<RouteDue, std::vector<RouteDue>, std::greater<>>
      route_due_;
  std::vector<model::WorkerIndex> due_scratch_;
  std::vector<WorkerMove> pending_moves_;
  std::vector<double> assignment_latency_samples_;
  std::vector<double> completion_latency_samples_;
  std::int64_t batches_ = 0;
  std::int64_t max_batch_size_ = 0;
  std::int64_t tasks_completed_ = 0;
};

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_STREAM_ENGINE_H_
