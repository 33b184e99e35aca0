#include "model/arrangement.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace model {

Arrangement::Arrangement(std::int64_t num_tasks, double delta)
    : num_tasks_(num_tasks),
      delta_(delta),
      accumulated_(static_cast<std::size_t>(num_tasks), 0.0),
      retired_(static_cast<std::size_t>(num_tasks), 0) {
  if (delta_ <= kQualityTol) completed_tasks_ = num_tasks_;
}

void Arrangement::Add(WorkerIndex worker, TaskId task, double acc_star) {
  const auto t = static_cast<std::size_t>(task);
  const bool was_completed = ReachedDelta(accumulated_[t], delta_);
  accumulated_[t] += acc_star;
  if (!was_completed && ReachedDelta(accumulated_[t], delta_)) {
    ++completed_tasks_;
  }
  assignments_.push_back(Assignment{worker, task, acc_star});
  total_acc_star_ += acc_star;
  if (static_cast<std::size_t>(worker) >= load_.size()) {
    load_.resize(static_cast<std::size_t>(worker) + 1, 0);
  }
  if (load_[static_cast<std::size_t>(worker)]++ == 0) ++workers_used_;
  max_worker_index_ = std::max(max_worker_index_, worker);
}

TaskId Arrangement::AddTask() {
  const auto id = static_cast<TaskId>(num_tasks_);
  accumulated_.push_back(0.0);
  retired_.push_back(0);
  ++num_tasks_;
  // Mirror the constructor's degenerate-delta handling: a task whose target
  // is already met counts as completed from the start.
  if (delta_ <= kQualityTol) ++completed_tasks_;
  return id;
}

void Arrangement::Retire(TaskId t) {
  const auto i = static_cast<std::size_t>(t);
  if (!ReachedDelta(accumulated_[i], delta_)) ++completed_tasks_;
  accumulated_[i] = delta_;
  retired_[i] = 1;
}

void Arrangement::AppendLiveState(std::string* out,
                                  std::vector<WorkerIndex>* workers) const {
  std::int64_t live = 0;
  for (const Assignment& a : assignments_) {
    if (!TaskCompleted(a.task)) ++live;
  }
  AppendRecord(out, "arr", live, workers_used_, total_acc_star_);
  for (const Assignment& a : assignments_) {
    if (TaskCompleted(a.task)) continue;
    AppendRecord(out, "a", a.worker, a.task, a.acc_star);
    workers->push_back(a.worker);
  }
}

Status Arrangement::RestoreLiveState(const ProblemInstance& instance,
                                     const std::vector<char>& task_open,
                                     snap::Reader* reader) {
  if (static_cast<std::int64_t>(task_open.size()) != num_tasks_ ||
      !assignments_.empty()) {
    return Status::Internal("snapshot: arrangement restore precondition");
  }
  for (std::size_t t = 0; t < task_open.size(); ++t) {
    if (!task_open[t]) Retire(static_cast<TaskId>(t));
  }
  snap::Fields f;
  std::int64_t n = 0;
  std::int64_t workers_used = 0;
  double total_acc_star = 0.0;
  LTC_RETURN_IF_ERROR(reader->ReadCount("arr", &n, 4, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &workers_used));
  LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &total_acc_star));
  assignments_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t w = 0;
    std::int64_t t = 0;
    double acc = 0.0;
    LTC_RETURN_IF_ERROR(reader->Read("a", 4, &f));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &w));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &t));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &acc));
    if (w < 1 || w > instance.num_workers() || t < 0 || t >= num_tasks_ ||
        retired_[static_cast<std::size_t>(t)]) {
      return Status::OutOfRange(StrFormat(
          "snapshot: assignment (worker %lld, task %lld) out of range",
          static_cast<long long>(w), static_cast<long long>(t)));
    }
    Add(static_cast<WorkerIndex>(w), static_cast<TaskId>(t), acc);
  }
  workers_used_ = workers_used;
  total_acc_star_ = total_acc_star;
  return Status::OK();
}

double Arrangement::Remaining(TaskId t) const {
  return std::max(0.0, delta_ - accumulated_[static_cast<std::size_t>(t)]);
}

bool Arrangement::TaskCompleted(TaskId t) const {
  return ReachedDelta(accumulated_[static_cast<std::size_t>(t)], delta_);
}

std::int32_t Arrangement::Load(WorkerIndex worker) const {
  const auto w = static_cast<std::size_t>(worker);
  return w < load_.size() ? load_[w] : 0;
}

Status ValidateArrangement(const ProblemInstance& instance,
                           const Arrangement& arrangement,
                           bool require_completion) {
  const double delta = instance.Delta();
  std::vector<double> recomputed(instance.tasks.size(), 0.0);
  std::vector<std::int32_t> load(instance.workers.size() + 1, 0);
  std::set<std::pair<WorkerIndex, TaskId>> seen;

  for (const Assignment& a : arrangement.assignments()) {
    if (a.worker < 1 || a.worker > instance.num_workers()) {
      return Status::OutOfRange(
          StrFormat("assignment references worker %d outside 1..%lld",
                    a.worker, static_cast<long long>(instance.num_workers())));
    }
    if (a.task < 0 || a.task >= instance.num_tasks()) {
      return Status::OutOfRange(
          StrFormat("assignment references task %d outside 0..%lld", a.task,
                    static_cast<long long>(instance.num_tasks() - 1)));
    }
    if (arrangement.retired(a.task)) {
      return Status::FailedPrecondition(
          StrFormat("retired task %d was assigned again", a.task));
    }
    if (!seen.insert({a.worker, a.task}).second) {
      return Status::FailedPrecondition(
          StrFormat("duplicate assignment (worker %d, task %d)", a.worker,
                    a.task));
    }
    if (++load[static_cast<std::size_t>(a.worker)] > instance.capacity) {
      return Status::FailedPrecondition(
          StrFormat("worker %d exceeds capacity K=%d", a.worker,
                    instance.capacity));
    }
    if (!instance.Eligible(a.worker, a.task)) {
      return Status::FailedPrecondition(StrFormat(
          "ineligible assignment (worker %d, task %d): Acc=%.4f < acc_min=%g",
          a.worker, a.task, instance.Acc(a.worker, a.task), instance.acc_min));
    }
    const double expected = instance.AccStar(a.worker, a.task);
    if (!AlmostEqual(expected, a.acc_star, 1e-9)) {
      return Status::Internal(StrFormat(
          "recorded Acc*=%.12f disagrees with model %.12f for (w%d, t%d)",
          a.acc_star, expected, a.worker, a.task));
    }
    recomputed[static_cast<std::size_t>(a.task)] += expected;
  }

  for (std::size_t t = 0; t < recomputed.size(); ++t) {
    if (arrangement.retired(static_cast<TaskId>(t))) continue;
    if (!AlmostEqual(recomputed[t], arrangement.accumulated()[t], 1e-6)) {
      return Status::Internal(
          StrFormat("task %zu accumulator drifted: recomputed %.9f vs "
                    "tracked %.9f",
                    t, recomputed[t], arrangement.accumulated()[t]));
    }
    if (require_completion && !ReachedDelta(recomputed[t], delta)) {
      return Status::FailedPrecondition(
          StrFormat("task %zu incomplete: sum Acc* = %.6f < delta = %.6f", t,
                    recomputed[t], delta));
    }
  }
  return Status::OK();
}

}  // namespace model
}  // namespace ltc
