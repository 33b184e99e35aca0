#include "svc/sharded_engine.h"

#include <algorithm>
#include <future>
#include <utility>

#include "common/container_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "model/eligibility.h"
#include "model/worker.h"

namespace ltc {
namespace svc {

namespace {

/// Gather fan-out granularity: slots are cheap (one radius query), so
/// chunking amortises the pool's per-task overhead without hurting load
/// balance at service batch sizes.
constexpr std::size_t kGatherChunk = 16;

bool DueOrder(const double a_time, const int a_shard, const double b_time,
              const int b_shard) {
  if (a_time != b_time) return a_time < b_time;
  return a_shard < b_shard;
}

}  // namespace

Status ShardedStreamEngine::InitCommon(const io::EventLog& header,
                                       const StreamOptions& options,
                                       std::optional<double>* cell_out) {
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  accuracy_ = header.accuracy;
  acc_min_ = header.acc_min;

  const auto cell =
      model::SpatialPruningCellSize(*header.accuracy, header.acc_min);
  // Stripe edges align with the incremental grids' cell columns. Models
  // without distance structure have no natural cell; the shared helper
  // resolves the fallback (equal stripe-wide columns) so this geometry can
  // never drift from the single-pipeline engine's.
  const double map_cell = model::StreamingCellSize(
      *header.accuracy, header.acc_min, options.world.Width(),
      options.shards);
  LTC_ASSIGN_OR_RETURN(
      map_, geo::ShardMap::Build(options.world, map_cell, options.shards));
  // One shard's route set is always {0}; HandleWorkerArrival skips the
  // routing that would only rediscover it.
  route_flags_.assign(static_cast<std::size_t>(options.shards),
                      options.shards == 1 ? 1 : 0);

  int threads = options.threads;
  if (threads == 0) threads = ThreadPool::DefaultThreads();
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  *cell_out = cell;
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedStreamEngine>> ShardedStreamEngine::Create(
    const io::EventLog& header, const StreamOptions& options) {
  std::unique_ptr<ShardedStreamEngine> engine(
      new ShardedStreamEngine(options));
  std::optional<double> cell;
  LTC_RETURN_IF_ERROR(engine->InitCommon(header, options, &cell));

  engine->pipelines_.reserve(static_cast<std::size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) {
    LTC_ASSIGN_OR_RETURN(
        auto pipeline,
        StreamPipeline::Create(header, StreamPipeline::Config{options, s,
                                                              cell}));
    engine->pipelines_.push_back(std::move(pipeline));
  }
  return engine;
}

Status ShardedStreamEngine::SerializeTo(std::string* out) const {
  if (finished_) {
    return Status::FailedPrecondition("SerializeTo after Finish");
  }
  AppendRecord(out, "shards", num_shards());
  AppendRecord(out, "clock", last_event_time_);
  AppendRecord(out, "counters", metrics_.events, metrics_.task_events,
               metrics_.worker_events, metrics_.move_events,
               metrics_.boundary_workers, metrics_.handoff_skips);

  // Open tasks only: a closed task's route is never read again (moves of
  // closed tasks are not forwarded), so the id space keeps just its size.
  std::int64_t n_open = 0;
  for (const char o : task_open_) n_open += o != 0 ? 1 : 0;
  AppendRecord(out, "tasks", n_open, task_route_.size());
  for (std::size_t t = 0; t < task_route_.size(); ++t) {
    if (!task_open_[t]) continue;
    AppendRecord(out, "r", t, task_route_[t].shard, task_route_[t].local);
  }

  // Hash-map state in sorted key order: snapshot bytes must not depend on
  // iteration order (common::SortedKeys is the lint-sanctioned walk).
  const std::vector<model::TaskId> displaced_keys = SortedKeys(displaced_);
  AppendRecord(out, "displaced", displaced_keys.size());
  for (const model::TaskId task : displaced_keys) {
    const Displaced& d = displaced_.at(task);
    AppendRecord(out, "d", task, d.owner, d.location.x, d.location.y);
  }
  const std::vector<model::WorkerIndex> claim_keys = SortedKeys(claims_);
  AppendRecord(out, "claims", claim_keys.size());
  for (const model::WorkerIndex worker : claim_keys) {
    const Claim& c = claims_.at(worker);
    AppendRecord(out, "c", worker, c.shard, c.remaining);
  }

  // The merged assignment log: a restarted server re-renders the *complete*
  // log from this state alone, so the prefix committed before the snapshot
  // rides along.
  AppendRecord(out, "log", assignments_.size());
  for (const StreamAssignment& a : assignments_) {
    AppendRecord(out, "A", a.time, a.worker, a.task);
  }
  // The merged move log, route_workers mode only — the default snapshot
  // bytes stay exactly the pre-routing format.
  if (options_.route_workers) {
    AppendRecord(out, "moves", moves_.size());
    for (const WorkerMove& m : moves_) {
      AppendRecord(out, "M", m.time, m.worker, m.location.x, m.location.y,
                   m.task);
    }
  }

  for (int s = 0; s < num_shards(); ++s) {
    AppendRecord(out, "pipeline", s);
    LTC_RETURN_IF_ERROR(
        pipelines_[static_cast<std::size_t>(s)]->SerializeTo(out));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedStreamEngine>> ShardedStreamEngine::Restore(
    const io::EventLog& header, const StreamOptions& options,
    const std::string& engine_state) {
  std::unique_ptr<ShardedStreamEngine> engine(
      new ShardedStreamEngine(options));
  std::optional<double> cell;
  LTC_RETURN_IF_ERROR(engine->InitCommon(header, options, &cell));

  snap::Reader reader(engine_state);
  snap::Fields f;

  LTC_RETURN_IF_ERROR(reader.Read("shards", 2, &f));
  std::int64_t shards = 0;
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &shards));
  if (shards != options.shards) {
    return Status::InvalidArgument(StrFormat(
        "snapshot taken with %lld shards; the service is configured for %d "
        "(restore requires an identical topology)",
        static_cast<long long>(shards), options.shards));
  }
  LTC_RETURN_IF_ERROR(reader.Read("clock", 2, &f));
  LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &engine->last_event_time_));
  LTC_RETURN_IF_ERROR(reader.Read("counters", 7, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &engine->metrics_.events));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &engine->metrics_.task_events));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &engine->metrics_.worker_events));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 4, &engine->metrics_.move_events));
  LTC_RETURN_IF_ERROR(
      snap::FieldI64(f, 5, &engine->metrics_.boundary_workers));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 6, &engine->metrics_.handoff_skips));

  std::int64_t n_open = 0;
  std::int64_t nt = 0;
  LTC_RETURN_IF_ERROR(reader.ReadCount("tasks", &n_open, 3, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &nt));
  if (nt != engine->metrics_.task_events || nt < n_open) {
    return Status::OutOfRange(
        "snapshot: task id space disagrees with the task event count");
  }
  engine->task_route_.assign(static_cast<std::size_t>(nt), TaskRoute{});
  engine->task_open_.assign(static_cast<std::size_t>(nt), 0);
  std::int64_t prev = -1;
  for (std::int64_t i = 0; i < n_open; ++i) {
    LTC_RETURN_IF_ERROR(reader.Read("r", 4, &f));
    std::int64_t task = 0;
    std::int64_t shard = 0;
    std::int64_t local = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &task));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &shard));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &local));
    if (task <= prev || task >= nt || shard < 0 ||
        shard >= options.shards || local < 0) {
      return Status::OutOfRange("snapshot: task route out of range");
    }
    prev = task;
    engine->task_route_[static_cast<std::size_t>(task)] = TaskRoute{
        static_cast<int>(shard), static_cast<model::TaskId>(local)};
    engine->task_open_[static_cast<std::size_t>(task)] = 1;
  }

  std::int64_t nd = 0;
  LTC_RETURN_IF_ERROR(reader.ReadCount("displaced", &nd));
  for (std::int64_t i = 0; i < nd; ++i) {
    LTC_RETURN_IF_ERROR(reader.Read("d", 5, &f));
    std::int64_t task = 0;
    std::int64_t owner = 0;
    Displaced d;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &task));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &owner));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &d.location.x));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &d.location.y));
    if (task < 0 || task >= nt || owner < 0 || owner >= options.shards ||
        !engine->task_open_[static_cast<std::size_t>(task)]) {
      return Status::OutOfRange("snapshot: displaced record out of range");
    }
    d.owner = static_cast<int>(owner);
    engine->displaced_[static_cast<model::TaskId>(task)] = d;
  }

  std::int64_t nc = 0;
  LTC_RETURN_IF_ERROR(reader.ReadCount("claims", &nc));
  for (std::int64_t i = 0; i < nc; ++i) {
    LTC_RETURN_IF_ERROR(reader.Read("c", 4, &f));
    std::int64_t worker = 0;
    std::int64_t shard = 0;
    std::int64_t remaining = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &worker));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &shard));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &remaining));
    if (worker < 1 || shard < -1 || shard >= options.shards ||
        remaining < 0) {
      return Status::OutOfRange("snapshot: claim record out of range");
    }
    engine->claims_.emplace(
        static_cast<model::WorkerIndex>(worker),
        Claim{static_cast<int>(shard), static_cast<int>(remaining)});
  }

  std::int64_t na = 0;
  LTC_RETURN_IF_ERROR(reader.ReadCount("log", &na));
  // Growth headroom, so the first commit after a restore does not copy
  // the whole log (StreamPipeline::Restore does the same).
  engine->assignments_.reserve(2 * static_cast<std::size_t>(na));
  for (std::int64_t i = 0; i < na; ++i) {
    LTC_RETURN_IF_ERROR(reader.Read("A", 4, &f));
    StreamAssignment a;
    std::int64_t worker = 0;
    std::int64_t task = 0;
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &a.time));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &worker));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &task));
    a.worker = static_cast<model::WorkerIndex>(worker);
    a.task = static_cast<model::TaskId>(task);
    engine->assignments_.push_back(a);
    engine->max_assigned_worker_ =
        std::max(engine->max_assigned_worker_, a.worker);
  }
  engine->metrics_.assignments =
      static_cast<std::int64_t>(engine->assignments_.size());

  if (options.route_workers) {
    std::int64_t nm = 0;
    LTC_RETURN_IF_ERROR(reader.ReadCount("moves", &nm));
    engine->moves_.reserve(static_cast<std::size_t>(nm));
    for (std::int64_t i = 0; i < nm; ++i) {
      LTC_RETURN_IF_ERROR(reader.Read("M", 6, &f));
      WorkerMove m;
      std::int64_t worker = 0;
      std::int64_t task = 0;
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &m.time));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &worker));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &m.location.x));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &m.location.y));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 5, &task));
      m.worker = static_cast<model::WorkerIndex>(worker);
      m.task = static_cast<model::TaskId>(task);
      engine->moves_.push_back(m);
    }
  }

  engine->pipelines_.reserve(static_cast<std::size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) {
    LTC_RETURN_IF_ERROR(reader.Read("pipeline", 2, &f));
    std::int64_t shard = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &shard));
    if (shard != s) {
      return Status::InvalidArgument("snapshot: pipeline blocks out of order");
    }
    LTC_ASSIGN_OR_RETURN(
        auto pipeline,
        StreamPipeline::Restore(
            header, StreamPipeline::Config{options, s, cell}, nt,
            engine->metrics_.worker_events, &reader));
    engine->pipelines_.push_back(std::move(pipeline));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot: trailing data after the last pipeline block");
  }
  return engine;
}

Status ShardedStreamEngine::OnEvent(const io::Event& event) {
  if (finished_) {
    return Status::FailedPrecondition("OnEvent after Finish");
  }
  if (event.time < last_event_time_) {
    return Status::InvalidArgument(
        StrFormat("event time %g precedes the stream clock %g", event.time,
                  last_event_time_));
  }
  LTC_RETURN_IF_ERROR(FlushExpired(event.time));
  last_event_time_ = event.time;
  ++metrics_.events;
  switch (event.kind) {
    case io::Event::Kind::kTaskArrival:
      return HandleTaskArrival(event);
    case io::Event::Kind::kWorkerArrival:
      return HandleWorkerArrival(event);
    case io::Event::Kind::kTaskMove:
      return HandleTaskMove(event);
  }
  return Status::InvalidArgument("unknown event kind");
}

Status ShardedStreamEngine::HandleTaskArrival(const io::Event& event) {
  const auto gid = static_cast<model::TaskId>(task_route_.size());
  const int shard = map_.ShardOf(event.location);
  LTC_ASSIGN_OR_RETURN(
      const model::TaskId local,
      pipelines_[static_cast<std::size_t>(shard)]->AddTask(gid, event.time,
                                                           event.location));
  task_route_.push_back(TaskRoute{shard, local});
  task_open_.push_back(1);
  ++metrics_.task_events;
  return Status::OK();
}

Status ShardedStreamEngine::HandleWorkerArrival(const io::Event& event) {
  ++metrics_.worker_events;
  const auto global_index =
      static_cast<model::WorkerIndex>(metrics_.worker_events);
  if (num_shards() > 1) RouteWorker(event.location, event.accuracy);

  due_.clear();
  int route_count = 0;
  for (int s = 0; s < num_shards(); ++s) {
    if (!route_flags_[static_cast<std::size_t>(s)]) continue;
    ++route_count;
    bool flush_now = false;
    LTC_RETURN_IF_ERROR(pipelines_[static_cast<std::size_t>(s)]->BufferWorker(
        global_index, event.location, event.accuracy, event.time,
        &flush_now));
    if (flush_now) due_.push_back(DueFlush{event.time, s});
  }
  if (route_count > 1) {
    claims_.emplace(global_index, Claim{-1, route_count});
    ++metrics_.boundary_workers;
  }
  if (due_.empty()) return Status::OK();
  return RunRound();
}

void ShardedStreamEngine::RouteWorker(const geo::Point& location,
                                      double accuracy) {
  // Route set: every stripe the eligibility disk intersects, plus the
  // owner shard of any displaced open task within reach. No distance
  // structure means no disk — the worker is offered everywhere.
  std::fill(route_flags_.begin(), route_flags_.end(), 0);
  model::Worker probe;
  probe.location = location;
  probe.historical_accuracy = accuracy;
  const auto radius = accuracy_->EligibleRadius(probe, acc_min_);
  if (!radius.has_value()) {
    std::fill(route_flags_.begin(), route_flags_.end(), 1);
    return;
  }
  const double r = std::max(0.0, *radius);
  int lo = 0;
  int hi = 0;
  map_.ShardRange(location, r, &lo, &hi);
  for (int s = lo; s <= hi; ++s) {
    route_flags_[static_cast<std::size_t>(s)] = 1;
  }
  const geo::Metric& metric = *accuracy_->DistanceMetric();
  const double r2 = r * r;
  for (const auto& [task, displaced] : displaced_) {
    if (!task_open_[static_cast<std::size_t>(task)]) continue;
    if (route_flags_[static_cast<std::size_t>(displaced.owner)]) continue;
    // The radius is in metric units; reachability of a displaced task is
    // a metric-ball test (the Euclidean fast path avoids the sqrt and any
    // virtual hop on the default backend).
    const bool in_reach =
        metric.euclidean()
            ? geo::SquaredDistance(displaced.location, location) <= r2
            : metric.Distance(location, displaced.location) <= r;
    if (in_reach) {
      route_flags_[static_cast<std::size_t>(displaced.owner)] = 1;
    }
  }
}

Status ShardedStreamEngine::HandleTaskMove(const io::Event& event) {
  if (event.task < 0 ||
      static_cast<std::size_t>(event.task) >= task_route_.size()) {
    return Status::InvalidArgument(
        StrFormat("move event references unknown task %d", event.task));
  }
  ++metrics_.move_events;
  // A closed task's location is never read again (it is out of the grid,
  // and post-hoc validation is skipped once anything moved), so its moves
  // stop at the router; that is what lets a snapshot drop closed tasks.
  if (task_open_[static_cast<std::size_t>(event.task)]) {
    const TaskRoute route = task_route_[static_cast<std::size_t>(event.task)];
    LTC_RETURN_IF_ERROR(pipelines_[static_cast<std::size_t>(route.shard)]
                            ->MoveTask(route.local, event.location));
    // Ownership is fixed at arrival; a task that crossed a stripe edge is
    // tracked so boundary routing can still reach its owner shard.
    const int home = map_.ShardOf(event.location);
    if (home != route.shard) {
      displaced_[event.task] = Displaced{route.shard, event.location};
    } else {
      displaced_.erase(event.task);
    }
  }
  return Status::OK();
}

Status ShardedStreamEngine::FlushExpired(double now) {
  due_.clear();
  for (int s = 0; s < num_shards(); ++s) {
    const StreamPipeline& p = *pipelines_[static_cast<std::size_t>(s)];
    if (!p.has_open_batch()) continue;
    // Commit at the instant the batch fell due, not at whichever event
    // happened to arrive next. The pipeline owns its flush instant — fixed
    // deadline or the forecast-positioned adaptive one.
    const double flush_time = p.batch_flush_time();
    if (now >= flush_time) due_.push_back(DueFlush{flush_time, s});
  }
  if (due_.empty()) return Status::OK();
  return RunRound();
}

Status ShardedStreamEngine::RunRound() {
  if (due_.empty()) return Status::OK();
  std::sort(due_.begin(), due_.end(),
            [](const DueFlush& a, const DueFlush& b) {
              return DueOrder(a.time, a.shard, b.time, b.shard);
            });

  // Phase 1 — gather, all due shards at once: commits of one shard never
  // touch another shard's open tasks and no event separates the due flush
  // instants, so every slot reads exactly its flush-time state. Workers
  // already claimed by another shard in an earlier round skip the query.
  std::size_t total_slots = 0;
  for (const DueFlush& f : due_) {
    StreamPipeline& p = *pipelines_[static_cast<std::size_t>(f.shard)];
    p.PrepareGather();
    total_slots += p.batch_size();
  }
  // Read-only during the gather; empty whenever no boundary worker is in
  // flight (always, with one shard).
  const bool any_claims = !claims_.empty();
  const auto gather_span = [this, any_claims](StreamPipeline* p,
                                              std::size_t begin,
                                              std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (any_claims) {
        const auto it = claims_.find(p->batch_global_worker(i));
        if (it != claims_.end() && it->second.shard != -1) {
          p->ClearSlot(i);  // lost in an earlier round; resolution counts it
          continue;
        }
      }
      p->GatherSlot(i);
    }
  };
  if (pool_ != nullptr && total_slots > 1) {
    std::vector<std::future<void>> futures;
    for (const DueFlush& f : due_) {
      StreamPipeline* p = pipelines_[static_cast<std::size_t>(f.shard)].get();
      const std::size_t n = p->batch_size();
      for (std::size_t begin = 0; begin < n; begin += kGatherChunk) {
        const std::size_t end = std::min(n, begin + kGatherChunk);
        futures.push_back(
            pool_->Submit([&gather_span, p, begin, end] {
              gather_span(p, begin, end);
            }));
      }
    }
    LTC_RETURN_IF_ERROR(ConsumeFutures(&futures, "gather"));
  } else {
    for (const DueFlush& f : due_) {
      StreamPipeline* p = pipelines_[static_cast<std::size_t>(f.shard)].get();
      gather_span(p, 0, p->batch_size());
    }
  }

  // Phase 2 — claim resolution, sequential in key order: the first shard
  // offering a non-empty candidate set claims the worker; later offers are
  // dropped before commit. Deterministic: a pure function of the gathered
  // slots and the table state left by earlier rounds.
  for (const DueFlush& f : due_) {
    StreamPipeline& p = *pipelines_[static_cast<std::size_t>(f.shard)];
    for (std::size_t i = 0; i < p.batch_size() && !claims_.empty(); ++i) {
      const auto it = claims_.find(p.batch_global_worker(i));
      if (it == claims_.end()) continue;  // single-shard worker
      Claim& claim = it->second;
      if (claim.shard == -1) {
        if (!p.SlotEmpty(i)) claim.shard = f.shard;
      } else if (claim.shard != f.shard) {
        p.ClearSlot(i);
        ++metrics_.handoff_skips;
      }
      // This was the worker's one offer from shard f; once every offered
      // shard has flushed it the decision is final and the entry retires.
      if (--claim.remaining == 0) claims_.erase(it);
    }
  }

  // Phase 3 — commit: each due shard's batch in parallel (a pipeline's
  // commit touches only shard-local state; the claim table is read-only
  // now). Statuses land in slot-indexed storage.
  if (pool_ != nullptr && due_.size() > 1) {
    std::vector<Status> statuses(due_.size(), Status::OK());
    std::vector<std::future<void>> futures;
    futures.reserve(due_.size());
    for (std::size_t k = 0; k < due_.size(); ++k) {
      StreamPipeline* p =
          pipelines_[static_cast<std::size_t>(due_[k].shard)].get();
      const double flush_time = due_[k].time;
      Status* status = &statuses[k];
      futures.push_back(pool_->Submit([p, flush_time, status] {
        *status = p->CommitBatch(flush_time);
      }));
    }
    LTC_RETURN_IF_ERROR(ConsumeFutures(&futures, "commit"));
    for (const Status& status : statuses) {
      LTC_RETURN_IF_ERROR(status);
    }
  } else {
    for (const DueFlush& f : due_) {
      LTC_RETURN_IF_ERROR(
          pipelines_[static_cast<std::size_t>(f.shard)]->CommitBatch(f.time));
    }
  }

  // Phase 4 — merge, sequential in the same key order: one deterministic
  // global log, closure bookkeeping for the router.
  for (const DueFlush& f : due_) {
    MergePending(pipelines_[static_cast<std::size_t>(f.shard)].get());
  }
  return Status::OK();
}

void ShardedStreamEngine::MergePending(StreamPipeline* p) {
  for (const StreamAssignment& a : p->pending_assignments()) {
    assignments_.push_back(a);
    max_assigned_worker_ = std::max(max_assigned_worker_, a.worker);
    ++metrics_.assignments;
  }
  p->pending_assignments().clear();
  for (const model::TaskId task : p->pending_closed()) {
    task_open_[static_cast<std::size_t>(task)] = 0;
    displaced_.erase(task);
  }
  p->pending_closed().clear();
  moves_.insert(moves_.end(), p->pending_moves().begin(),
                p->pending_moves().end());
  p->pending_moves().clear();
}

StatusOr<StreamMetrics> ShardedStreamEngine::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  due_.clear();
  double end_time = last_event_time_;
  for (int s = 0; s < num_shards(); ++s) {
    const StreamPipeline& p = *pipelines_[static_cast<std::size_t>(s)];
    if (!p.has_open_batch()) continue;
    // The service waits out the deadline for the final stragglers.
    due_.push_back(DueFlush{p.batch_flush_time(), s});
    end_time = std::max(end_time, due_.back().time);
  }
  LTC_RETURN_IF_ERROR(RunRound());

  // Batch schedulers may still hold a partial Theorem-2 batch per shard;
  // drain them sequentially in shard order — one deterministic tail for the
  // global log, merged exactly like a round's phase 4.
  for (const auto& pipeline : pipelines_) {
    LTC_RETURN_IF_ERROR(pipeline->CommitStreamEnd(end_time));
    MergePending(pipeline.get());
  }
  finished_ = true;

  // One deterministic global move order; stable so equal (time, worker)
  // keys — zero-length legs — keep their route order.
  std::stable_sort(moves_.begin(), moves_.end(),
                   [](const WorkerMove& a, const WorkerMove& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.worker < b.worker;
                   });
  metrics_.worker_moves = static_cast<std::int64_t>(moves_.size());
  metrics_.last_event_time = last_event_time_;
  metrics_.shards = num_shards();
  std::vector<double> assignment_samples;
  std::vector<double> completion_samples;
  for (const auto& pipeline : pipelines_) {
    metrics_.batches += pipeline->batches();
    metrics_.max_batch_size =
        std::max(metrics_.max_batch_size, pipeline->max_batch_size());
    metrics_.tasks_completed += pipeline->tasks_completed();
    metrics_.open_tasks += pipeline->open_tasks();
    metrics_.routed_workers += pipeline->routed_workers();
    metrics_.route_travel_time += pipeline->route_travel_time();
    metrics_.quiet_flushes += pipeline->quiet_flushes();
    metrics_.deadline_extensions += pipeline->deadline_extensions();
    const auto* a = pipeline->mutable_assignment_latency_samples();
    assignment_samples.insert(assignment_samples.end(), a->begin(), a->end());
    const auto* c = pipeline->mutable_completion_latency_samples();
    completion_samples.insert(completion_samples.end(), c->begin(), c->end());
  }
  metrics_.assignment_latency = sim::SummarizeLatencies(&assignment_samples);
  metrics_.completion_latency = sim::SummarizeLatencies(&completion_samples);

  if (options_.validate && metrics_.move_events == 0 &&
      metrics_.task_events > 0) {
    for (const auto& pipeline : pipelines_) {
      LTC_RETURN_IF_ERROR(pipeline->Validate());
    }
    metrics_.validated = true;
  }
  return metrics_;
}

sim::RunMetrics ShardedStreamEngine::RunMetricsView(
    double runtime_seconds) const {
  sim::RunMetrics run;
  run.algorithm = options_.algorithm;
  run.latency = max_assigned_worker_;
  run.completed = metrics_.tasks_completed == metrics_.task_events;
  run.runtime_seconds = runtime_seconds;
  run.assignment_latency = metrics_.assignment_latency;
  run.stats.workers_seen = metrics_.worker_events;
  run.stats.assignments = metrics_.assignments;
  for (const auto& pipeline : pipelines_) {
    // Running totals: a restored arrangement no longer holds the
    // assignments of closed tasks.
    run.stats.total_acc_star += pipeline->arrangement().total_acc_star();
    // The claim table guarantees a worker commits in at most one shard.
    run.stats.workers_used += pipeline->workers_used();
  }
  return run;
}

StatusOr<ReplayResult> ReplayEventLog(
    const io::EventLog& log, const StreamOptions& options,
    std::vector<StreamAssignment>* assignments_out,
    std::vector<WorkerMove>* moves_out) {
  LTC_RETURN_IF_ERROR(log.Validate());
  StreamOptions resolved = options;
  for (const io::Event& e : log.events) {
    resolved.world.min_x = std::min(resolved.world.min_x, e.location.x);
    resolved.world.min_y = std::min(resolved.world.min_y, e.location.y);
    resolved.world.max_x = std::max(resolved.world.max_x, e.location.x);
    resolved.world.max_y = std::max(resolved.world.max_y, e.location.y);
  }

  Stopwatch watch;
  LTC_ASSIGN_OR_RETURN(auto engine,
                       ShardedStreamEngine::Create(log, resolved));
  for (const io::Event& e : log.events) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
  }
  ReplayResult result;
  LTC_ASSIGN_OR_RETURN(result.stream, engine->Finish());
  result.run = engine->RunMetricsView(watch.ElapsedSeconds());
  if (assignments_out != nullptr) *assignments_out = engine->assignments();
  if (moves_out != nullptr) *moves_out = engine->worker_moves();
  return result;
}

}  // namespace svc
}  // namespace ltc
