// The task-worker arrangement M (paper Definition 6) with incremental
// bookkeeping: per-task accumulated Acc* (the S array of Algorithms 1-3),
// per-worker load, completion tracking, and full constraint validation.

#ifndef LTC_MODEL_ARRANGEMENT_H_
#define LTC_MODEL_ARRANGEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/snap_reader.h"
#include "common/status.h"
#include "model/problem.h"
#include "model/task.h"
#include "model/worker.h"

namespace ltc {
namespace model {

/// One (worker, task) assignment with its Acc* contribution.
struct Assignment {
  WorkerIndex worker = 0;
  TaskId task = 0;
  double acc_star = 0.0;
};

/// \brief Mutable arrangement under construction by a scheduler.
///
/// Assignments are append-only (the paper's invariable constraint: an
/// assignment can never be revoked). Completion is tracked against the delta
/// fixed at construction.
class Arrangement {
 public:
  /// num_tasks tasks, all starting at accumulated Acc* = 0; delta is the
  /// completion threshold 2 ln(1/eps).
  Arrangement(std::int64_t num_tasks, double delta);

  /// Records that `worker` performs `task` contributing `acc_star`.
  /// Invariable: there is deliberately no removal API.
  void Add(WorkerIndex worker, TaskId task, double acc_star);

  /// Appends one more task (id num_tasks(), accumulated Acc* 0) — the
  /// streaming path (svc::StreamPipeline) grows the arrangement as task
  /// arrival events come in. Returns the new task's id.
  TaskId AddTask();

  /// Turns task `t` (not yet assigned) into a retired placeholder: a task
  /// that reached delta before a snapshot, whose assignments the snapshot
  /// no longer carries (DESIGN.md §11). It counts as completed, has
  /// Remaining 0, and must never be assigned again; validation skips its
  /// quality sum.
  void Retire(TaskId t);
  bool retired(TaskId t) const {
    return retired_[static_cast<std::size_t>(t)] != 0;
  }

  /// Accumulated Acc* of a task (S[t] in the paper's pseudocode).
  double accumulated(TaskId t) const {
    return accumulated_[static_cast<std::size_t>(t)];
  }
  const std::vector<double>& accumulated() const { return accumulated_; }

  /// Remaining demand max(0, delta - S[t]).
  double Remaining(TaskId t) const;

  /// True once S[t] >= delta (with tolerance).
  bool TaskCompleted(TaskId t) const;

  /// True once every task reached delta. O(1).
  bool AllCompleted() const { return completed_tasks_ == num_tasks_; }

  std::int64_t num_tasks() const { return num_tasks_; }
  std::int64_t completed_tasks() const { return completed_tasks_; }
  double delta() const { return delta_; }

  /// Number of tasks assigned to `worker` so far.
  std::int32_t Load(WorkerIndex worker) const;

  /// The latency objective: max arrival index over all assignments
  /// (0 when empty).
  WorkerIndex MaxWorkerIndex() const { return max_worker_index_; }

  const std::vector<Assignment>& assignments() const { return assignments_; }

  /// Running totals over every assignment ever added, retired ones
  /// included: distinct workers with at least one assignment, and the sum
  /// of Acc* accumulated in Add order (the order a loop over assignments()
  /// sums in, so the double is bit-identical to that loop's).
  std::int64_t workers_used() const { return workers_used_; }
  double total_acc_star() const { return total_acc_star_; }

  /// Snapshot form of the arrangement's live part (DESIGN.md §11):
  /// "arr <n> <workers_used> <total_acc_star>", then n records
  /// "a <worker> <task> <acc_star>" — the assignments of tasks still below
  /// delta, in Add order. acc_star is recorded, not recomputed on restore:
  /// a task may have moved since the assignment was made. Appends the
  /// worker of every record to *workers. Assignments of completed tasks
  /// are history the snapshot does not keep.
  void AppendLiveState(std::string* out,
                       std::vector<WorkerIndex>* workers) const;

  /// Counterpart of AppendLiveState, on a fresh arrangement over
  /// `instance`'s tasks: retires every task `task_open` marks closed,
  /// replays the live records read from *reader, and restores the totals.
  Status RestoreLiveState(const ProblemInstance& instance,
                          const std::vector<char>& task_open,
                          snap::Reader* reader);
  std::int64_t size() const {
    return static_cast<std::int64_t>(assignments_.size());
  }

 private:
  std::int64_t num_tasks_;
  double delta_;
  std::vector<double> accumulated_;
  std::vector<char> retired_;  // by task id
  std::vector<Assignment> assignments_;
  std::vector<std::int32_t> load_;  // indexed by worker index (1-based)
  std::int64_t completed_tasks_ = 0;
  WorkerIndex max_worker_index_ = 0;
  std::int64_t workers_used_ = 0;
  double total_acc_star_ = 0.0;
};

/// \brief Checks every LTC constraint of `arrangement` against `instance`:
///
///  * worker indices and task ids in range;
///  * capacity: no worker holds more than K assignments;
///  * no duplicate (worker, task) pair;
///  * eligibility: every assigned pair has Acc >= acc_min;
///  * recorded Acc* values match the instance's accuracy model;
///  * if `require_completion`, every task's recomputed ΣAcc* reaches delta.
///
/// Retired tasks (Arrangement::Retire) carry no assignments to recompute
/// from; they are checked only for staying unassigned.
///
/// Returns OK or the first violation found.
Status ValidateArrangement(const ProblemInstance& instance,
                           const Arrangement& arrangement,
                           bool require_completion);

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_ARRANGEMENT_H_
