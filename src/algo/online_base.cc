#include "algo/online_base.h"

#include "common/snap_reader.h"

namespace ltc {
namespace algo {

Status OnlineSchedulerBase::Init(const model::ProblemInstance& instance,
                                 const model::EligibilityIndex& index) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (&index.instance() != &instance) {
    return Status::InvalidArgument(
        "eligibility index was built for a different instance");
  }
  instance_ = &instance;
  index_ = &index;
  delta_ = instance.Delta();
  arrangement_.emplace(instance.num_tasks(), delta_);
  ResetShardContext();
  return OnInit();
}

Status OnlineSchedulerBase::InitStreaming(
    const model::ProblemInstance& instance) {
  // No Validate() here: a stream starts empty (no tasks, no workers), which
  // the batch validator rejects. The structural invariants — dense task ids,
  // sequential worker indices — are maintained by the engine as it appends.
  if (instance.accuracy == nullptr) {
    return Status::InvalidArgument("streaming instance has no accuracy model");
  }
  if (!(instance.epsilon > 0.0) || !(instance.epsilon < 1.0)) {
    return Status::InvalidArgument("streaming instance epsilon outside (0,1)");
  }
  instance_ = &instance;
  index_ = nullptr;  // eligibility is the engine's job in streaming mode
  delta_ = instance.Delta();
  arrangement_.emplace(instance.num_tasks(), delta_);
  AdoptShardContext();
  return OnInit();
}

Status OnlineSchedulerBase::OnTaskAdded(model::TaskId task) {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("OnTaskAdded before InitStreaming");
  }
  if (static_cast<std::int64_t>(task) != arrangement_->num_tasks()) {
    return Status::InvalidArgument(
        "OnTaskAdded: task ids must arrive densely in order");
  }
  arrangement_->AddTask();
  return OnTaskAddedHook(task);
}

Status OnlineSchedulerBase::OnArrival(const model::Worker& worker,
                                      std::vector<model::TaskId>* assigned) {
  assigned->clear();
  if (instance_ == nullptr || index_ == nullptr) {
    return Status::FailedPrecondition("OnArrival before Init");
  }
  if (arrangement_->AllCompleted()) return Status::OK();

  // Sorted: keeps arrival-time candidate order (and thus seeded Random's
  // picks) independent of the spatial index's internal cell layout.
  index_->EligibleTasksSorted(worker, &eligible_scratch_);
  return SelectAndCommit(worker, eligible_scratch_, FilterCompleted(),
                         assigned);
}

Status OnlineSchedulerBase::OnArrivalWithCandidates(
    const model::Worker& worker, const std::vector<model::TaskId>& candidates,
    std::vector<model::TaskId>* assigned) {
  assigned->clear();
  if (instance_ == nullptr) {
    return Status::FailedPrecondition(
        "OnArrivalWithCandidates before InitStreaming");
  }
  if (arrangement_->AllCompleted()) return Status::OK();
  // Unconditional re-filter in streaming mode: the caller gathered
  // `candidates` at flush time, so an earlier worker of the same batch may
  // have completed one since. A service never re-serves a finished task —
  // even under Random, whose batch-mode FilterCompleted() is false
  // (DESIGN.md §8).
  return SelectAndCommit(worker, candidates, /*filter_completed=*/true,
                         assigned);
}

Status OnlineSchedulerBase::SerializeState(
    std::string* out, std::vector<model::WorkerIndex>* workers) const {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("SerializeState before InitStreaming");
  }
  arrangement_->AppendLiveState(out, workers);
  SerializeExtras(out);
  return Status::OK();
}

Status OnlineSchedulerBase::RestoreState(
    const model::ProblemInstance& instance, const StreamShardContext& shard,
    const std::vector<char>& task_open, std::string_view blob) {
  LTC_RETURN_IF_ERROR(InitStreamingSharded(instance, shard));
  snap::Reader reader(blob);
  LTC_RETURN_IF_ERROR(
      arrangement_->RestoreLiveState(instance, task_open, &reader));
  OnRestored();
  snap::Fields f;
  while (reader.Next(&f)) {
    if (f[0] != "x" || f.size() < 2) {
      return Status::InvalidArgument("snapshot: unknown scheduler line: " +
                                     std::string(f[0]));
    }
    f.erase(f.begin());
    LTC_RETURN_IF_ERROR(RestoreExtra(f));
  }
  return Status::OK();
}

Status OnlineSchedulerBase::SelectAndCommit(
    const model::Worker& worker, const std::vector<model::TaskId>& eligible,
    bool filter_completed, std::vector<model::TaskId>* assigned) {
  candidates_scratch_.clear();
  for (model::TaskId t : eligible) {
    if (!filter_completed || !arrangement_->TaskCompleted(t)) {
      candidates_scratch_.push_back(t);
    }
  }
  if (candidates_scratch_.empty()) return Status::OK();

  SelectTasks(worker, candidates_scratch_, assigned);
  if (static_cast<std::int64_t>(assigned->size()) > capacity()) {
    return Status::Internal(Name() + " selected more tasks than capacity K");
  }
  for (model::TaskId t : *assigned) {
    arrangement_->Add(worker.index, t, instance_->AccStar(worker.index, t));
    OnAssigned(worker, t);
  }
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
