// MCF — the streaming form of MCF-LTC (paper Algorithm 1), served by the
// svc layer behind `ltc_serve --scheduler=mcf`.
//
// The offline algorithm consumes the worker stream in Theorem-2 batches
// (m = |T| * ceil(delta) / K, first batch 1.5x) and matches each batch
// against the still-open tasks by one min-cost max-flow. This scheduler
// runs the same loop over a *live* stream: it implements the batch
// streaming protocol of algo/scheduler.h (SchedulesWholeBatch), buffers
// admitted workers with their flush-time candidate sets until a Theorem-2
// batch is full, and then replays the exact McfLtc::Run batch body —
// demand refresh, arc construction with the arrival-position tie-break,
// one warm-started flow::IncrementalMcmf solve, flow extraction, greedy
// top-up, supply retirement. The flow network, task demand nodes, and node
// potentials persist across batches for the lifetime of the stream, so
// every solve after the first starts from already-consistent prices.
//
// Determinism: commitments are a pure function of the admitted worker
// sequence and their candidate sets, so the svc determinism contract
// (byte-identical logs for any --threads, pinned per --shards) holds
// unchanged. Over an EventLogFromInstance replay at batching deadline 0
// the admitted sequence *is* the offline worker order against a fully
// materialised task set, and the commitments reproduce McfLtc::Run batch
// for batch (svc_mcf_stream_test pins this).

#ifndef LTC_ALGO_MCF_STREAM_H_
#define LTC_ALGO_MCF_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/mcf_ltc.h"
#include "algo/scheduler.h"
#include "common/heap.h"
#include "flow/min_cost_flow.h"

namespace ltc {
namespace algo {

/// \brief The MCF-LTC batch loop as a streaming scheduler.
///
/// Reuses McfLtcOptions: warm_start / drift_check_every configure the
/// persistent incremental solver, index_tie_break and the batch factors
/// shape each batch exactly as in the offline run.
class McfStream : public OnlineScheduler {
 public:
  explicit McfStream(McfLtcOptions options = {}) : options_(options) {}

  std::string Name() const override { return "MCF"; }

  // Batch-mode entry points are unsupported: MCF streams through the svc
  // engine (sim::RunOnline's per-arrival contract cannot express a batch
  // commitment for an earlier worker).
  Status Init(const model::ProblemInstance& instance,
              const model::EligibilityIndex& index) override;
  Status OnArrival(const model::Worker& worker,
                   std::vector<model::TaskId>* assigned) override;

  Status InitStreaming(const model::ProblemInstance& instance) override;
  Status OnTaskAdded(model::TaskId task) override;

  bool SchedulesWholeBatch() const override { return true; }
  Status OnBatchWithCandidates(
      const std::vector<model::WorkerIndex>& workers,
      const std::vector<const std::vector<model::TaskId>*>& candidates,
      std::vector<StreamCommit>* commits) override;
  Status OnStreamEnd(std::vector<StreamCommit>* commits) override;

  /// Snapshot protocol (DESIGN.md §11). Serialized: the arrangement's
  /// live part (model::Arrangement::AppendLiveState), the open internal
  /// batch (workers with their flush-time candidate sets), and the
  /// batch-phase flags. The IncrementalMcmf warm state is deliberately NOT
  /// serialized — restore cold-starts a fresh solver. This is sound
  /// because each flush refreshes every demand absolutely from the
  /// arrangement and retires all supplies afterwards, so a solve's
  /// commitments depend only on (arrangement, buffered batch); the warm
  /// start is a pure speed-up whose warm-vs-cold assignment-log identity
  /// the drift checks already enforce (DESIGN.md §10). Retired tasks are
  /// completed, so a flush skips them exactly as it skips closed ones. The
  /// first post-restore flush simply pays one cold solve.
  Status SerializeState(std::string* out,
                        std::vector<model::WorkerIndex>* workers)
      const override;
  Status RestoreState(const model::ProblemInstance& instance,
                      const StreamShardContext& shard,
                      const std::vector<char>& task_open,
                      std::string_view blob) override;

  bool Done() const override {
    return arrangement_.has_value() && arrangement_->AllCompleted();
  }
  const model::Arrangement& arrangement() const override {
    return *arrangement_;
  }

  const McfLtcOptions& options() const { return options_; }
  /// Batches solved so far (diagnostics; svc_mcf_stream_test).
  std::int64_t batches_solved() const { return batches_solved_; }

 private:
  /// The Theorem-2 target size of the batch currently buffering, from the
  /// task count seen so far: max(1, floor(|T| * ceil(delta) / K *
  /// batch_factor)), 1.5x while the first batch is open.
  std::int64_t BatchTarget() const;

  /// Solves the buffered batch (the offline loop body) and appends its
  /// commitments. No-op on an empty buffer; drains the buffer unassigned
  /// once every task reached delta.
  Status FlushInternalBatch(std::vector<StreamCommit>* commits);

  McfLtcOptions options_;
  const model::ProblemInstance* instance_ = nullptr;
  std::optional<model::Arrangement> arrangement_;
  double delta_ = 0.0;

  // The persistent cross-batch solver state (exactly McfLtc::Run's, with
  // stream lifetime instead of call lifetime).
  std::unique_ptr<flow::IncrementalMcmf> incr_;
  std::vector<flow::NodeId> task_right_;  // task -> demand node (-1 = none)
  std::vector<char> task_closed_;         // deficit already zeroed

  // The open internal batch: worker local indices plus their flush-time
  // candidate sets, flattened (worker p's candidates occupy
  // [buf_begin_[p], buf_begin_[p + 1])).
  std::vector<model::WorkerIndex> buf_worker_;
  std::vector<std::size_t> buf_begin_;
  std::vector<model::TaskId> buf_cand_;
  bool first_batch_ = true;
  std::int64_t batches_solved_ = 0;

  // Per-flush scratch, recycled across batches (see McfLtc::Run).
  std::vector<flow::NodeId> batch_left_;
  std::vector<std::size_t> pair_begin_;
  std::vector<model::TaskId> pair_task_;
  std::vector<double> pair_acc_;
  std::vector<flow::ArcId> pair_arc_;
  std::vector<char> pair_assigned_;
  std::vector<std::int32_t> batch_load_;
  BoundedTopK top_up_{0};
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_MCF_STREAM_H_
