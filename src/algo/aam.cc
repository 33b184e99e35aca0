#include "algo/aam.h"

#include <algorithm>

#include "common/string_util.h"

namespace ltc {
namespace algo {

Status Aam::OnInit() {
  const auto n = static_cast<std::size_t>(instance().num_tasks());
  remaining_.assign(n, delta());
  remaining_sum_ = delta() * static_cast<double>(n);
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
  last_strategy_ = Strategy::kNone;
  return Status::OK();
}

Status Aam::OnTaskAddedHook(model::TaskId task) {
  // A task arriving mid-stream enters with full remaining demand delta;
  // the lazy max heap takes the new entry through the same Update path the
  // assignment bookkeeping uses.
  remaining_.push_back(delta());
  remaining_sum_ += delta();
  max_tracker_->Update(task);
  return Status::OK();
}

void Aam::SelectTasks(const model::Worker& worker,
                      const std::vector<model::TaskId>& candidates,
                      std::vector<model::TaskId>* out) {
  // Algorithm 3 lines 4-5 (or a forced pure strategy when ablating).
  bool use_lgf = true;
  switch (options_.force) {
    case AamOptions::Force::kLgfOnly:
      use_lgf = true;
      break;
    case AamOptions::Force::kLrfOnly:
      use_lgf = false;
      break;
    case AamOptions::Force::kNone: {
      const double avg =
          remaining_sum_ / static_cast<double>(instance().capacity);
      const double max_remain = max_tracker_->Max();
      use_lgf = avg >= max_remain;
      break;
    }
  }
  last_strategy_ = use_lgf ? Strategy::kLgf : Strategy::kLrf;

  // Lines 6-12: score candidates under the active strategy, keep top K.
  BoundedTopK heap(static_cast<std::size_t>(capacity()));
  for (model::TaskId t : candidates) {
    const double remaining = remaining_[static_cast<std::size_t>(t)];
    double score;
    if (use_lgf) {
      // LGF: the gain is capped by what the task still needs, so highly
      // accurate workers are not wasted on nearly-finished tasks.
      score = std::min(instance().AccStar(worker.index, t), remaining);
    } else {
      // LRF: attack the bottleneck tasks with the most remaining demand.
      score = remaining;
    }
    heap.Push(score, t);
  }
  for (const auto& item : heap.TakeDescending()) {
    out->push_back(static_cast<model::TaskId>(item.id));
  }
}

void Aam::OnAssigned(const model::Worker& worker, model::TaskId task) {
  (void)worker;
  const auto t = static_cast<std::size_t>(task);
  const double new_remaining = arr().Remaining(task);
  remaining_sum_ -= remaining_[t] - new_remaining;
  remaining_[t] = new_remaining;
  max_tracker_->Update(task);
}

void Aam::OnRestored() {
  for (std::size_t t = 0; t < remaining_.size(); ++t) {
    remaining_[t] = arr().Remaining(static_cast<model::TaskId>(t));
  }
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
}

void Aam::SerializeExtras(std::string* out) const {
  AppendRecord(out, "x aam", remaining_sum_);
}

Status Aam::RestoreExtra(const snap::Fields& fields) {
  if (fields.size() != 2 || fields[0] != "aam" ||
      !ParseDouble(fields[1], &remaining_sum_)) {
    return Status::InvalidArgument("AAM: bad snapshot line");
  }
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
