#include "algo/mcf_stream.h"

#include <algorithm>
#include <cmath>

#include "common/snap_reader.h"
#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace algo {

namespace {

/// Same Acc* quantisation as McfLtc: parts-per-million into the integer
/// cost domain. The two must agree for the deadline-0 parity contract.
constexpr std::int64_t kCostScale = 1'000'000;

}  // namespace

Status McfStream::Init(const model::ProblemInstance& instance,
                       const model::EligibilityIndex& index) {
  (void)instance;
  (void)index;
  return Status::NotImplemented(
      "MCF schedules whole stream batches; run it through the svc engine "
      "(offline instances go through MCF-LTC)");
}

Status McfStream::OnArrival(const model::Worker& worker,
                            std::vector<model::TaskId>* assigned) {
  (void)worker;
  (void)assigned;
  return Status::NotImplemented(
      "MCF schedules whole stream batches; run it through the svc engine");
}

Status McfStream::InitStreaming(const model::ProblemInstance& instance) {
  if (instance.accuracy == nullptr) {
    return Status::InvalidArgument("streaming instance has no accuracy model");
  }
  if (!(instance.epsilon > 0.0) || !(instance.epsilon < 1.0)) {
    return Status::InvalidArgument("streaming instance epsilon outside (0,1)");
  }
  if (options_.batch_factor <= 0.0 || options_.first_batch_factor <= 0.0) {
    return Status::InvalidArgument("MCF: batch factors must be positive");
  }
  instance_ = &instance;
  delta_ = instance.Delta();
  arrangement_.emplace(instance.num_tasks(), delta_);

  flow::IncrementalMcmfOptions incr_options;
  incr_options.warm_start = options_.warm_start;
  incr_options.drift_check_every = options_.drift_check_every;
  incr_ = std::make_unique<flow::IncrementalMcmf>(incr_options);
  task_right_.assign(static_cast<std::size_t>(instance.num_tasks()), -1);
  task_closed_.assign(static_cast<std::size_t>(instance.num_tasks()), 0);

  buf_worker_.clear();
  buf_begin_.assign(1, 0);
  buf_cand_.clear();
  first_batch_ = true;
  batches_solved_ = 0;
  AdoptShardContext();
  return Status::OK();
}

Status McfStream::OnTaskAdded(model::TaskId task) {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("OnTaskAdded before InitStreaming");
  }
  if (static_cast<std::int64_t>(task) != arrangement_->num_tasks()) {
    return Status::InvalidArgument(
        "OnTaskAdded: task ids must arrive densely in order");
  }
  arrangement_->AddTask();
  task_right_.push_back(-1);
  task_closed_.push_back(0);
  return Status::OK();
}

std::int64_t McfStream::BatchTarget() const {
  // The offline m evaluated against the tasks seen so far. Over an
  // EventLogFromInstance replay every task precedes the first worker, so
  // this is the offline batch size exactly; over a live mixed stream the
  // target simply tracks the growing task set.
  const double m_real = static_cast<double>(arrangement_->num_tasks()) *
                        std::ceil(delta_) /
                        static_cast<double>(instance_->capacity) *
                        options_.batch_factor;
  const double factor = first_batch_ ? options_.first_batch_factor : 1.0;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(m_real * factor)));
}

Status McfStream::OnBatchWithCandidates(
    const std::vector<model::WorkerIndex>& workers,
    const std::vector<const std::vector<model::TaskId>*>& candidates,
    std::vector<StreamCommit>* commits) {
  if (instance_ == nullptr || !arrangement_.has_value()) {
    return Status::FailedPrecondition(
        "OnBatchWithCandidates before InitStreaming");
  }
  if (workers.size() != candidates.size()) {
    return Status::InvalidArgument("workers/candidates size mismatch");
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    // Offline consumes *every* worker of the stream prefix into a batch,
    // eligible or not — buffer unconditionally so batch boundaries match.
    buf_worker_.push_back(workers[i]);
    buf_cand_.insert(buf_cand_.end(), candidates[i]->begin(),
                     candidates[i]->end());
    buf_begin_.push_back(buf_cand_.size());
    if (static_cast<std::int64_t>(buf_worker_.size()) >= BatchTarget()) {
      LTC_RETURN_IF_ERROR(FlushInternalBatch(commits));
    }
  }
  return Status::OK();
}

Status McfStream::OnStreamEnd(std::vector<StreamCommit>* commits) {
  if (instance_ == nullptr || !arrangement_.has_value()) {
    return Status::FailedPrecondition("OnStreamEnd before InitStreaming");
  }
  // The final partial batch — offline's last loop iteration, where
  // take = min(m, workers remaining).
  return FlushInternalBatch(commits);
}

Status McfStream::SerializeState(
    std::string* out, std::vector<model::WorkerIndex>* workers) const {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("SerializeState before InitStreaming");
  }
  arrangement_->AppendLiveState(out, workers);
  // One line per buffered worker: "b <worker> [cand...]" in buffer order,
  // candidates exactly as gathered at admission.
  for (std::size_t p = 0; p < buf_worker_.size(); ++p) {
    out->append("b ");
    AppendInt(out, buf_worker_[p]);
    for (std::size_t k = buf_begin_[p]; k < buf_begin_[p + 1]; ++k) {
      out->push_back(' ');
      AppendInt(out, buf_cand_[k]);
    }
    out->push_back('\n');
    workers->push_back(buf_worker_[p]);
  }
  AppendRecord(out, "m", first_batch_ ? 1 : 0, batches_solved_);
  return Status::OK();
}

Status McfStream::RestoreState(const model::ProblemInstance& instance,
                               const StreamShardContext& shard,
                               const std::vector<char>& task_open,
                               std::string_view blob) {
  // Fresh solver, empty buffer, task_right_ all -1: the cold-restart
  // baseline the header documents.
  LTC_RETURN_IF_ERROR(InitStreamingSharded(instance, shard));
  snap::Reader reader(blob);
  LTC_RETURN_IF_ERROR(
      arrangement_->RestoreLiveState(instance, task_open, &reader));
  snap::Fields f;
  while (reader.Next(&f)) {
    if (f[0] == "b") {
      std::int64_t w = 0;
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &w));
      if (w < 1 || w > instance.num_workers()) {
        return Status::InvalidArgument("snapshot: bad buffer worker");
      }
      buf_worker_.push_back(static_cast<model::WorkerIndex>(w));
      for (std::size_t i = 2; i < f.size(); ++i) {
        std::int64_t t = 0;
        LTC_RETURN_IF_ERROR(snap::FieldI64(f, i, &t));
        if (t < 0 || t >= arrangement_->num_tasks()) {
          return Status::InvalidArgument("snapshot: bad buffer candidate");
        }
        buf_cand_.push_back(static_cast<model::TaskId>(t));
      }
      buf_begin_.push_back(buf_cand_.size());
    } else if (f[0] == "m") {
      std::int64_t fb = 0;
      if (f.size() != 3) {
        return Status::InvalidArgument("snapshot: bad marker line");
      }
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &fb));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &batches_solved_));
      first_batch_ = fb != 0;
    } else {
      return Status::InvalidArgument("snapshot: unknown scheduler line: " +
                                     std::string(f[0]));
    }
  }
  return Status::OK();
}

Status McfStream::FlushInternalBatch(std::vector<StreamCommit>* commits) {
  const std::size_t nb = buf_worker_.size();
  if (nb == 0) return Status::OK();
  if (arrangement_->AllCompleted()) {
    // Offline stops consuming workers at completion; the stream keeps
    // flowing, so late arrivals drain unassigned.
    buf_worker_.clear();
    buf_begin_.assign(1, 0);
    buf_cand_.clear();
    return Status::OK();
  }

  // ---- Lines 5-6 of Algorithm 1 (see McfLtc::Run): refresh demands. ----
  for (model::TaskId t = 0; t < arrangement_->num_tasks(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (arrangement_->TaskCompleted(t)) {
      if (task_right_[ti] >= 0 && !task_closed_[ti]) {
        LTC_RETURN_IF_ERROR(incr_->SetDeficit(task_right_[ti], 0));
        task_closed_[ti] = 1;
      }
      continue;
    }
    const double remaining = arrangement_->Remaining(t);
    const auto demand = std::max<std::int64_t>(
        1,
        static_cast<std::int64_t>(std::ceil(remaining - model::kQualityTol)));
    if (task_right_[ti] < 0) {
      task_right_[ti] = incr_->AddRight(demand);
    } else {
      LTC_RETURN_IF_ERROR(incr_->SetDeficit(task_right_[ti], demand));
    }
  }

  // ---- Worker supply and arcs, with the arrival-position tie-break. ----
  // Candidates were gathered at admission; tasks completed by batches
  // flushed since are re-filtered here, exactly like the offline arc
  // builder skips completed tasks.
  const std::int64_t tie_scale =
      options_.index_tie_break ? static_cast<std::int64_t>(nb) + 1 : 1;
  pair_begin_.assign(nb + 1, 0);
  pair_task_.clear();
  pair_acc_.clear();
  pair_arc_.clear();
  batch_left_.assign(nb, -1);
  for (std::size_t p = 0; p < nb; ++p) {
    pair_begin_[p] = pair_task_.size();
    const model::Worker& w =
        instance_->workers[static_cast<std::size_t>(buf_worker_[p]) - 1];
    for (std::size_t k = buf_begin_[p]; k < buf_begin_[p + 1]; ++k) {
      const model::TaskId t = buf_cand_[k];
      if (arrangement_->TaskCompleted(t)) continue;
      if (batch_left_[p] < 0) {
        batch_left_[p] = incr_->AddLeft(instance_->capacity);
      }
      const double acc_star = instance_->AccStar(w.index, t);
      const auto scaled =
          static_cast<std::int64_t>(std::llround(acc_star * kCostScale));
      const std::int64_t cost =
          -scaled * tie_scale +
          (options_.index_tie_break ? static_cast<std::int64_t>(p) : 0);
      LTC_ASSIGN_OR_RETURN(
          const flow::ArcId arc,
          incr_->AddArc(batch_left_[p],
                        task_right_[static_cast<std::size_t>(t)], 1, cost));
      pair_task_.push_back(t);
      pair_acc_.push_back(acc_star);
      pair_arc_.push_back(arc);
    }
  }
  pair_begin_[nb] = pair_task_.size();

  LTC_RETURN_IF_ERROR(incr_->Solve().status());
  ++batches_solved_;

  // ---- Line 7: extract M' and update S. ----
  batch_load_.assign(nb, 0);
  pair_assigned_.assign(pair_task_.size(), 0);
  for (std::size_t p = 0; p < nb; ++p) {
    const model::WorkerIndex w = buf_worker_[p];
    for (std::size_t k = pair_begin_[p]; k < pair_begin_[p + 1]; ++k) {
      if (incr_->ArcFlow(pair_arc_[k]) <= 0) continue;
      const model::TaskId t = pair_task_[k];
      arrangement_->Add(w, t, pair_acc_[k]);
      commits->push_back(StreamCommit{w, t});
      ++batch_load_[p];
      pair_assigned_[k] = 1;
    }
  }

  // ---- Lines 8-15: greedy top-up of spare capacity. ----
  for (std::size_t p = 0; p < nb; ++p) {
    const std::int32_t spare = instance_->capacity - batch_load_[p];
    if (spare <= 0) continue;
    if (arrangement_->AllCompleted()) break;
    const model::WorkerIndex w = buf_worker_[p];
    top_up_.Reset(static_cast<std::size_t>(spare));
    for (std::size_t k = pair_begin_[p]; k < pair_begin_[p + 1]; ++k) {
      if (pair_assigned_[k]) continue;
      const model::TaskId t = pair_task_[k];
      if (arrangement_->TaskCompleted(t)) continue;
      top_up_.Push(pair_acc_[k], t);
    }
    for (const auto& item : top_up_.TakeDescending()) {
      const auto t = static_cast<model::TaskId>(item.id);
      arrangement_->Add(w, t, item.score);
      commits->push_back(StreamCommit{w, t});
    }
  }

  // Retire the batch's supply with deliveries frozen — the warm-start
  // invariant (no flow-carrying lefts at solve start) carried over from
  // McfLtc::Run.
  for (std::size_t p = 0; p < nb; ++p) {
    if (batch_left_[p] < 0) continue;
    LTC_RETURN_IF_ERROR(incr_->RetireLeft(
        batch_left_[p], flow::IncrementalMcmf::RetireMode::kFreeze));
  }

  buf_worker_.clear();
  buf_begin_.assign(1, 0);
  buf_cand_.clear();
  first_batch_ = false;
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
