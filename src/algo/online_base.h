// Shared machinery for the online schedulers (LAF, AAM, Random): eligibility
// lookups, uncompleted-task filtering, arrangement bookkeeping. Subclasses
// only implement the per-arrival selection rule.

#ifndef LTC_ALGO_ONLINE_BASE_H_
#define LTC_ALGO_ONLINE_BASE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/scheduler.h"
#include "common/snap_reader.h"

namespace ltc {
namespace algo {

/// \brief Base class implementing the OnArrival skeleton common to all
/// online LTC algorithms:
///
///   1. skip if all tasks are completed;
///   2. compute the worker's eligible, uncompleted candidate tasks;
///   3. delegate the choice of at most K of them to SelectTasks();
///   4. commit the choices to the arrangement and notify OnAssigned().
class OnlineSchedulerBase : public OnlineScheduler {
 public:
  Status Init(const model::ProblemInstance& instance,
              const model::EligibilityIndex& index) override;

  Status OnArrival(const model::Worker& worker,
                   std::vector<model::TaskId>* assigned) override;

  /// Streaming protocol: the candidate enumeration of step 2 moves to the
  /// caller (svc::StreamPipeline queries its incremental index); everything
  /// else — filtering, SelectTasks, commitment — is shared with OnArrival.
  Status InitStreaming(const model::ProblemInstance& instance) override;
  Status OnTaskAdded(model::TaskId task) override;
  Status OnArrivalWithCandidates(const model::Worker& worker,
                                 const std::vector<model::TaskId>& candidates,
                                 std::vector<model::TaskId>* assigned) override;

  /// Snapshot protocol (DESIGN.md §11): the generic serialization is the
  /// arrangement's live part (model::Arrangement::AppendLiveState), which
  /// RestoreState replays before OnRestored() lets subclasses rebuild
  /// their per-task aggregates (AAM). State that the arrangement cannot
  /// rebuild (Random's generator, AAM's running sum) rides in
  /// "x <payload>" lines via the extras hooks.
  Status SerializeState(std::string* out,
                        std::vector<model::WorkerIndex>* workers)
      const override;
  Status RestoreState(const model::ProblemInstance& instance,
                      const StreamShardContext& shard,
                      const std::vector<char>& task_open,
                      std::string_view blob) override;

  bool Done() const override { return arrangement_->AllCompleted(); }

  const model::Arrangement& arrangement() const override {
    return *arrangement_;
  }

 protected:
  /// Chooses at most `capacity()` tasks from `candidates` (eligible,
  /// ascending id; uncompleted unless FilterCompleted() is false) for
  /// `worker`; appends choices to *out.
  virtual void SelectTasks(const model::Worker& worker,
                           const std::vector<model::TaskId>& candidates,
                           std::vector<model::TaskId>* out) = 0;

  /// Whether candidates are restricted to tasks that have not reached delta.
  /// LAF/AAM check "if T[i] has not reached delta" (Algorithms 2-3); the
  /// naive Random baseline does not look at the quality state at all and so
  /// keeps answering nearby tasks that are already done.
  virtual bool FilterCompleted() const { return true; }

  /// Hook invoked after each committed assignment (AAM maintains its
  /// remaining-demand aggregates here).
  virtual void OnAssigned(const model::Worker& worker, model::TaskId task) {
    (void)worker;
    (void)task;
  }

  /// Hook invoked by Init after the base state is ready.
  virtual Status OnInit() { return Status::OK(); }

  /// Hook invoked after the arrangement grew by one task (streaming);
  /// subclasses with per-task state (AAM's remaining-demand aggregates)
  /// extend it here.
  virtual Status OnTaskAddedHook(model::TaskId task) {
    (void)task;
    return Status::OK();
  }

  /// Appends scheduler-specific snapshot lines ("x <payload>") after the
  /// generic arrangement lines. Default: no extra state.
  virtual void SerializeExtras(std::string* out) const { (void)out; }

  /// Applies one scheduler-specific snapshot record: `fields` are the
  /// fields after "x". Extras are applied after the arrangement replay and
  /// OnRestored(), in emission order. Default: schedulers without extras
  /// reject any payload.
  virtual Status RestoreExtra(const snap::Fields& fields) {
    return Status::InvalidArgument(
        Name() + ": unknown snapshot payload: " +
        std::string(fields.empty() ? std::string_view() : fields[0]));
  }

  /// Hook invoked by RestoreState once the arrangement holds the restored
  /// live state (retired placeholders included), before any extra applies.
  virtual void OnRestored() {}

  const model::ProblemInstance& instance() const { return *instance_; }
  const model::EligibilityIndex& index() const { return *index_; }
  std::int32_t capacity() const { return instance_->capacity; }
  double delta() const { return delta_; }
  const model::Arrangement& arr() const { return *arrangement_; }

 private:
  /// Steps 2-4 shared by OnArrival and OnArrivalWithCandidates: drop
  /// completed tasks from `eligible` when `filter_completed`, select, and
  /// commit.
  Status SelectAndCommit(const model::Worker& worker,
                         const std::vector<model::TaskId>& eligible,
                         bool filter_completed,
                         std::vector<model::TaskId>* assigned);

  const model::ProblemInstance* instance_ = nullptr;
  const model::EligibilityIndex* index_ = nullptr;
  std::optional<model::Arrangement> arrangement_;
  double delta_ = 0.0;
  std::vector<model::TaskId> eligible_scratch_;
  std::vector<model::TaskId> candidates_scratch_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_ONLINE_BASE_H_
