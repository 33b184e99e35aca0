// Scheduler interfaces for the LTC problem.
//
// Offline schedulers (paper Sec. III) see the whole instance. Online
// schedulers (paper Sec. IV) are driven arrival-by-arrival by the simulation
// engine (src/sim/engine.h) and must commit assignments immediately — the
// temporal constraint of Definition 7. Both produce a ScheduleResult whose
// arrangement is validated by the same model::ValidateArrangement code.

#ifndef LTC_ALGO_SCHEDULER_H_
#define LTC_ALGO_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "model/arrangement.h"
#include "model/eligibility.h"
#include "model/problem.h"

namespace ltc {

namespace fcst {
class ArrivalForecast;
}  // namespace fcst

namespace algo {

/// Solver diagnostics accumulated during a run.
struct ScheduleStats {
  /// Arrivals examined before stopping.
  std::int64_t workers_seen = 0;
  /// Distinct workers that received at least one task.
  std::int64_t workers_used = 0;
  /// Total (worker, task) assignments made.
  std::int64_t assignments = 0;
  /// Sum of Acc* over all assignments (the ∆ of the paper's analysis).
  double total_acc_star = 0.0;
  /// MCF-LTC only: batches solved and flow augmentations performed.
  std::int64_t mcf_batches = 0;
  std::int64_t mcf_augmentations = 0;
};

/// Outcome of a scheduling run.
struct ScheduleResult {
  ScheduleResult(std::int64_t num_tasks, double delta)
      : arrangement(num_tasks, delta) {}

  model::Arrangement arrangement;
  /// True iff every task reached delta before the stream ran out.
  bool completed = false;
  /// The objective MinMax(M): max arrival index used. Only meaningful when
  /// completed (otherwise it is the max index used before exhaustion).
  model::WorkerIndex latency = 0;
  ScheduleStats stats;
};

/// \brief An algorithm that sees the full instance up front (MCF-LTC,
/// Base-off, the exhaustive optimum).
class OfflineScheduler {
 public:
  virtual ~OfflineScheduler() = default;

  /// Display name ("MCF-LTC", "Base-off", ...).
  virtual std::string Name() const = 0;

  /// Solves the instance. `index` must have been built on `instance`.
  virtual StatusOr<ScheduleResult> Run(
      const model::ProblemInstance& instance,
      const model::EligibilityIndex& index) = 0;
};

/// \brief An algorithm that decides per arrival (LAF, AAM, Random).
///
/// Protocol: Init once, then OnArrival for workers in stream order. The
/// engine stops calling once Done() — all tasks completed — or the stream is
/// exhausted. Implementations must base decisions only on the tasks, the
/// instance parameters, and arrivals seen so far.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  virtual std::string Name() const = 0;

  /// Resets all state for a fresh run over `instance`.
  virtual Status Init(const model::ProblemInstance& instance,
                      const model::EligibilityIndex& index) = 0;

  /// Decides the (at most K) tasks for the arriving worker; appends them to
  /// *assigned (cleared first) and records them in the arrangement. The
  /// commitment is irrevocable.
  virtual Status OnArrival(const model::Worker& worker,
                           std::vector<model::TaskId>* assigned) = 0;

  /// True once every task reached delta.
  virtual bool Done() const = 0;

  /// The arrangement built so far.
  virtual const model::Arrangement& arrangement() const = 0;

  // --- Streaming protocol (svc::StreamPipeline; DESIGN.md §8-§9) ---
  //
  // A streaming run has no complete instance up front: the engine appends
  // tasks and workers to one growing ProblemInstance as arrival events come
  // in, keeps an incremental spatial index over the open tasks, and hands
  // each admitted worker its precomputed candidate set. Implementations must
  // still base decisions only on the instance prefix seen so far. Defaults
  // return NotImplemented so purely batch schedulers need no changes.

  /// Shard-local identity of a streaming scheduler. The sharded service
  /// (svc::ShardedStreamEngine, DESIGN.md §9) runs one scheduler per
  /// spatial shard over that shard's own growing instance; the context
  /// tells seeded schedulers which shard they are so per-shard randomness
  /// decorrelates deterministically. The single-pipeline default {0, 1} is
  /// the identity: shard 0 behaves exactly like an unsharded scheduler.
  struct StreamShardContext {
    int shard_id = 0;
    int num_shards = 1;
  };

  /// Streaming init with an explicit shard identity: arms the context
  /// (visible to subclasses via shard_context()) and delegates to
  /// InitStreaming. This is the entry point every svc pipeline uses. A
  /// *plain* InitStreaming call — on a fresh scheduler or one previously
  /// sharded — always resets to the identity context instead (see
  /// AdoptShardContext), so reuse can never leak a stale shard id into an
  /// unsharded run's seeding.
  Status InitStreamingSharded(const model::ProblemInstance& instance,
                              const StreamShardContext& shard) {
    shard_context_ = shard;
    shard_context_armed_ = true;
    return InitStreaming(instance);
  }

  /// The shard identity of the current streaming run ({0, 1} for batch and
  /// unsharded streaming runs).
  const StreamShardContext& shard_context() const { return shard_context_; }

  /// Gives this scheduler read access to the pipeline's online arrival
  /// forecast (fcst/arrival_forecast.h; DESIGN.md §13) for the remainder of
  /// the streaming run. The pointer is owned by the caller (the svc
  /// pipeline), stays valid until the next Init*/Restore*, and may be null
  /// (no forecast maintained — the fixed-deadline modes). Schedulers that
  /// want predicted arrival rates read arrival_forecast(); the default
  /// schedulers ignore it, so installing a forecast never changes their
  /// commitments.
  void InstallForecast(const fcst::ArrivalForecast* forecast) {
    arrival_forecast_ = forecast;
  }

  /// The installed forecast, or null when none is maintained.
  const fcst::ArrivalForecast* arrival_forecast() const {
    return arrival_forecast_;
  }

  /// Resets all state for a streaming run over `instance`, which the caller
  /// grows in place between calls (tasks via OnTaskAdded, workers before
  /// their OnArrivalWithCandidates). `instance` may still be empty here.
  virtual Status InitStreaming(const model::ProblemInstance& instance) {
    (void)instance;
    return Status::NotImplemented(Name() + " does not support streaming");
  }

  /// Notifies that instance.tasks grew by one; `task` is the new id and
  /// must equal the previous task count (dense arrival order).
  virtual Status OnTaskAdded(model::TaskId task) {
    (void)task;
    return Status::NotImplemented(Name() + " does not support streaming");
  }

  /// Like OnArrival, but with eligibility supplied by the caller:
  /// `candidates` holds the worker's eligible open tasks in ascending id
  /// order, as of the admitting batch's flush. Tasks completed by earlier
  /// commits of the same batch are re-filtered internally.
  virtual Status OnArrivalWithCandidates(
      const model::Worker& worker,
      const std::vector<model::TaskId>& candidates,
      std::vector<model::TaskId>* assigned) {
    (void)worker;
    (void)candidates;
    (void)assigned;
    return Status::NotImplemented(Name() + " does not support streaming");
  }

  // --- Batch streaming protocol (svc::StreamPipeline; DESIGN.md §10) ---
  //
  // Per-worker commitment is the wrong shape for flow-based schedulers: the
  // streaming MCF scheduler must buffer workers until it has a whole
  // Theorem-2 batch, and a batch solve may assign tasks to *earlier*
  // arrivals than the one whose event triggered the flush. Schedulers that
  // return true from SchedulesWholeBatch() are driven through
  // OnBatchWithCandidates / OnStreamEnd instead of OnArrivalWithCandidates,
  // and report every commitment as an explicit (worker, task) pair.

  /// One batch-protocol commitment. `worker` is the scheduler-local arrival
  /// index (instance.workers[worker - 1]) — the svc pipeline translates to
  /// global identity when it serialises the assignment log.
  struct StreamCommit {
    model::WorkerIndex worker = 0;
    model::TaskId task = 0;
  };

  /// True for schedulers that assign per flushed micro-batch (MCF) rather
  /// than per worker.
  virtual bool SchedulesWholeBatch() const { return false; }

  /// Batch-protocol flush: `workers[i]` (local arrival indices) was admitted
  /// with eligible open tasks `*candidates[i]` (ascending ids, gathered at
  /// flush time). Appends every commitment made — for these workers or ones
  /// buffered from earlier flushes — to *commits in commit order, recording
  /// each in the arrangement. May commit nothing (buffering).
  virtual Status OnBatchWithCandidates(
      const std::vector<model::WorkerIndex>& workers,
      const std::vector<const std::vector<model::TaskId>*>& candidates,
      std::vector<StreamCommit>* commits) {
    (void)workers;
    (void)candidates;
    (void)commits;
    return Status::NotImplemented(Name() + " does not schedule whole batches");
  }

  /// End of stream: flushes any internally buffered workers (the final
  /// partial batch) exactly like the offline algorithm's last iteration.
  /// Appends the commitments to *commits. Default: nothing buffered.
  virtual Status OnStreamEnd(std::vector<StreamCommit>* commits) {
    (void)commits;
    return Status::OK();
  }

  // --- Snapshot protocol (svc crash recovery; DESIGN.md §11) ---
  //
  // A crash-recoverable service periodically snapshots each pipeline; the
  // scheduler contributes a line-oriented text blob capturing its *live*
  // streaming-mode state — what a later commitment can still depend on.
  // History the WAL already holds stays out: tasks that reached delta
  // restore as retired placeholders (model::Arrangement::Retire), and
  // their assignments are not serialized. The contract: restoring a
  // snapshot and continuing the stream must produce exactly the
  // commitments the uninterrupted scheduler would have produced —
  // svc_recovery_test pins this per scheduler.
  //
  // Line vocabulary (one record per '\n'-terminated line):
  //   "arr ..." + "a <worker> <task> <acc_star>" — the arrangement's live
  //       part (model::Arrangement::AppendLiveState).
  //   anything else                   — scheduler-specific (see subclasses).

  /// Appends this scheduler's live streaming state to *out, and to
  /// *workers the local index of every worker that state references (the
  /// pipeline keeps those workers' records in its snapshot; the others
  /// restore as placeholders). Only meaningful after InitStreaming;
  /// implementations must emit every line their own RestoreState needs.
  virtual Status SerializeState(std::string* out,
                                std::vector<model::WorkerIndex>* workers)
      const {
    (void)out;
    (void)workers;
    return Status::NotImplemented(Name() + " does not support snapshots");
  }

  /// Counterpart of SerializeState: re-initialises this scheduler for a
  /// streaming run over `instance` — which the caller has already re-grown
  /// to the snapshot's task/worker id space, with placeholders for closed
  /// tasks and unreferenced workers — with shard identity `shard`, then
  /// applies `blob`. task_open[t] is nonzero for the tasks still below
  /// delta; the others restore retired. After RestoreState the scheduler
  /// is indistinguishable (commitment for commitment) from one that lived
  /// through the whole prefix.
  virtual Status RestoreState(const model::ProblemInstance& instance,
                              const StreamShardContext& shard,
                              const std::vector<char>& task_open,
                              std::string_view blob) {
    (void)instance;
    (void)shard;
    (void)task_open;
    (void)blob;
    return Status::NotImplemented(Name() + " does not support snapshots");
  }

 protected:
  /// Batch Init paths call this so a reused scheduler object never carries
  /// a stale shard identity into a non-sharded run.
  void ResetShardContext() {
    shard_context_ = StreamShardContext{};
    shard_context_armed_ = false;
  }

  /// Streaming-init implementations call this before their OnInit-style
  /// hooks: it consumes a context armed by InitStreamingSharded, or — when
  /// the caller used plain InitStreaming — resets to the identity, closing
  /// the stale-context hazard symmetrically with the batch path.
  void AdoptShardContext() {
    if (!shard_context_armed_) shard_context_ = StreamShardContext{};
    shard_context_armed_ = false;
  }

 private:
  StreamShardContext shard_context_{};
  bool shard_context_armed_ = false;
  const fcst::ArrivalForecast* arrival_forecast_ = nullptr;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_SCHEDULER_H_
