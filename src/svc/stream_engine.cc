#include "svc/stream_engine.h"

#include <algorithm>
#include <future>
#include <utility>

#include "algo/mcf_stream.h"
#include "algo/registry.h"
#include "common/string_util.h"
#include "model/arrangement.h"

namespace ltc {
namespace svc {

Status ConsumeFutures(std::vector<std::future<void>>* futures,
                      const char* what) {
  Status status = Status::OK();
  for (auto& f : *futures) {
    try {
      f.get();
    } catch (const std::exception& e) {
      if (status.ok()) {
        status = Status::Internal(std::string(what) + " task threw: " +
                                  e.what());
      }
    }
  }
  return status;
}

// --- StreamPipeline -------------------------------------------------------

namespace {

/// Validates the pipeline's options and builds its scheduler (shared by
/// Create and Restore, which must construct identically configured
/// schedulers for the restart determinism contract to hold).
StatusOr<std::unique_ptr<algo::OnlineScheduler>> MakePipelineScheduler(
    const StreamOptions& options) {
  if (!(options.batch_deadline >= 0.0)) {
    return Status::InvalidArgument("batch_deadline must be >= 0");
  }
  if (options.deadline_policy == DeadlinePolicy::kAdaptive) {
    if (!(options.batch_deadline > 0.0)) {
      return Status::InvalidArgument(
          "adaptive deadline policy needs a positive cap (batch_deadline)");
    }
    if (!(options.forecast_horizon > 0.0)) {
      return Status::InvalidArgument("forecast_horizon must be > 0");
    }
  }
  if (options.max_batch < 0) {
    return Status::InvalidArgument("max_batch must be >= 0");
  }
  LTC_ASSIGN_OR_RETURN(bool online, algo::IsOnlineAlgorithm(options.algorithm));
  if (!online) {
    return Status::InvalidArgument(
        "streaming admission drives online schedulers; '" + options.algorithm +
        "' is offline");
  }
  if (options.algorithm == "MCF") {
    // The registry's default-constructed MCF cannot carry the service's
    // warm-start knobs, so the pipeline builds its own.
    algo::McfLtcOptions mcf_options;
    mcf_options.warm_start = options.mcf_warm_start;
    mcf_options.drift_check_every = options.mcf_drift_check_every;
    return std::unique_ptr<algo::OnlineScheduler>(
        std::make_unique<algo::McfStream>(mcf_options));
  }
  return algo::MakeOnlineScheduler(options.algorithm, options.seed);
}

}  // namespace

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Create(
    const io::EventLog& header, const Config& config) {
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  std::unique_ptr<StreamPipeline> pipeline(new StreamPipeline(config));
  pipeline->instance_.epsilon = header.epsilon;
  pipeline->instance_.capacity = header.capacity;
  pipeline->instance_.acc_min = header.acc_min;
  pipeline->instance_.accuracy = header.accuracy;

  LTC_ASSIGN_OR_RETURN(pipeline->scheduler_,
                       MakePipelineScheduler(config.options));
  LTC_RETURN_IF_ERROR(pipeline->scheduler_->InitStreamingSharded(
      pipeline->instance_,
      algo::OnlineScheduler::StreamShardContext{config.shard_id,
                                                config.options.shards}));

  if (config.cell_size.has_value()) {
    LTC_ASSIGN_OR_RETURN(
        auto grid, geo::GridIndex::BuildDynamic(config.options.world,
                                                *config.cell_size));
    pipeline->grid_.emplace(std::move(grid));
  }
  LTC_RETURN_IF_ERROR(pipeline->InitForecast());
  return pipeline;
}

Status StreamPipeline::InitForecast() {
  if (config_.options.deadline_policy != DeadlinePolicy::kAdaptive) {
    return Status::OK();
  }
  fcst::CellRateEstimator::Config fc;
  // Same cell decomposition as the incremental task index; models without
  // spatial structure fall back to one global rate cell.
  if (config_.cell_size.has_value()) {
    fc.grid = geo::CellGrid(config_.options.world, *config_.cell_size);
  }
  fc.horizon = config_.options.forecast_horizon;
  LTC_ASSIGN_OR_RETURN(auto estimator, fcst::CellRateEstimator::Create(fc));
  forecast_.emplace(std::move(estimator));
  scheduler_->InstallForecast(&*forecast_);
  return Status::OK();
}

Status StreamPipeline::SerializeTo(std::string* out) const {
  if (!pending_assignments_.empty() || !pending_closed_.empty() ||
      !pending_moves_.empty()) {
    return Status::FailedPrecondition(
        "pipeline snapshot mid-round: pending records not yet merged");
  }
  // The scheduler blob comes first: it names the workers its live state
  // references, and only those workers' records are kept.
  std::string sched;
  std::vector<model::WorkerIndex> live_workers(batch_.begin(), batch_.end());
  LTC_RETURN_IF_ERROR(scheduler_->SerializeState(&sched, &live_workers));
  for (const auto& [w, route] : routes_) live_workers.push_back(w);
  std::sort(live_workers.begin(), live_workers.end());
  live_workers.erase(std::unique(live_workers.begin(), live_workers.end()),
                     live_workers.end());

  // Open tasks only, by explicit local id; the dense id space is restored
  // with placeholders for the closed ones.
  const std::int64_t nt = instance_.num_tasks();
  std::int64_t n_open = 0;
  for (const char o : open_) n_open += o != 0 ? 1 : 0;
  AppendRecord(out, "ptasks", n_open, nt);
  for (std::int64_t t = 0; t < nt; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (!open_[ti]) continue;
    // Current location, not arrival location: moves already applied.
    AppendRecord(out, "pt", t, task_global_[ti], task_arrival_time_[ti],
                 instance_.tasks[ti].location.x,
                 instance_.tasks[ti].location.y);
  }
  AppendRecord(out, "pworkers", live_workers.size(), instance_.num_workers());
  for (const model::WorkerIndex w : live_workers) {
    const auto i = static_cast<std::size_t>(w) - 1;
    const model::Worker& worker = instance_.workers[i];
    AppendRecord(out, "pw", w, worker_global_[i], worker.location.x,
                 worker.location.y, worker.historical_accuracy);
  }
  out->append("pbatch ");
  AppendDouble(out, batch_open_time_);
  out->push_back(' ');
  AppendInt(out, batch_.size());
  for (const model::WorkerIndex w : batch_) {
    out->push_back(' ');
    AppendInt(out, w);
  }
  out->push_back('\n');
  AppendRecord(out, "pcounters", batches_, max_batch_size_, tasks_completed_,
               routes_created_, route_travel_time_);
  AppendRecord(out, "plat_a", assignment_latency_samples_.size());
  for (const double v : assignment_latency_samples_) {
    AppendRecord(out, "l", v);
  }
  AppendRecord(out, "plat_c", completion_latency_samples_.size());
  for (const double v : completion_latency_samples_) {
    AppendRecord(out, "l", v);
  }
  const auto sched_lines =
      static_cast<std::int64_t>(std::count(sched.begin(), sched.end(), '\n'));
  AppendRecord(out, "sched", sched_lines);
  out->append(sched);
  // Route state rides along only in route_workers mode: the routes with
  // stops still ahead (finished ones are folded into the counters).
  if (config_.options.route_workers) {
    AppendRecord(out, "proutes", routes_.size());
    for (const auto& [w, route] : routes_) {
      AppendRecord(out, "pr", w, route.origin().x, route.origin().y,
                   route.start_time(), route.visited(), route.stops().size());
      for (const model::WorkerRoute::Stop& s : route.stops()) {
        AppendRecord(out, "ps", s.task, s.location.x, s.location.y);
      }
    }
  }
  // Adaptive-deadline state likewise rides along only when the policy is
  // on. The forecast blob and the open batch's flush instant are schedule
  // inputs: a restored service must predict — and therefore flush —
  // exactly as the uninterrupted one would (DESIGN.md §13).
  if (config_.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    std::string blob;
    LTC_RETURN_IF_ERROR(forecast_->SerializeTo(&blob));
    const auto blob_lines =
        static_cast<std::int64_t>(std::count(blob.begin(), blob.end(), '\n'));
    AppendRecord(out, "pfcst", blob_lines);
    out->append(blob);
    AppendRecord(out, "pdl", batch_flush_time_, quiet_flushes_,
                 deadline_extensions_);
  }
  out->append("endpipe\n");
  return Status::OK();
}

namespace {

/// Reads a "key <records> <ids>" header: `records` lines follow, and the
/// dense id space they index is `ids` long, at least `records` and at
/// most `max_ids`.
Status ReadIdSpace(snap::Reader* reader, const char* key,
                   std::int64_t max_ids, std::int64_t* records,
                   std::int64_t* ids) {
  snap::Fields f;
  LTC_RETURN_IF_ERROR(reader->ReadCount(key, records, 3, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, ids));
  if (*ids < *records || *ids > max_ids) {
    return Status::OutOfRange(StrFormat(
        "snapshot: '%s' id space %lld outside [%lld, %lld]", key,
        static_cast<long long>(*ids), static_cast<long long>(*records),
        static_cast<long long>(max_ids)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Restore(
    const io::EventLog& header, const Config& config, std::int64_t max_tasks,
    std::int64_t max_workers, snap::Reader* reader) {
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  std::unique_ptr<StreamPipeline> pipeline(new StreamPipeline(config));
  StreamPipeline& p = *pipeline;
  p.instance_.epsilon = header.epsilon;
  p.instance_.capacity = header.capacity;
  p.instance_.acc_min = header.acc_min;
  p.instance_.accuracy = header.accuracy;

  snap::Fields f;

  // Tasks: the dense local id space, placeholders for the closed ids (no
  // location, arrival or global id is ever read for them again), then the
  // open tasks' records in ascending local id.
  std::int64_t n_open = 0;
  std::int64_t nt = 0;
  LTC_RETURN_IF_ERROR(ReadIdSpace(reader, "ptasks", max_tasks, &n_open, &nt));
  const auto nts = static_cast<std::size_t>(nt);
  p.instance_.tasks.resize(nts);
  for (std::size_t t = 0; t < nts; ++t) {
    p.instance_.tasks[t].id = static_cast<model::TaskId>(t);
  }
  p.task_arrival_time_.assign(nts, 0.0);
  p.task_global_.assign(nts, -1);
  p.open_.assign(nts, 0);
  std::int64_t prev = -1;
  for (std::int64_t i = 0; i < n_open; ++i) {
    LTC_RETURN_IF_ERROR(reader->Read("pt", 6, &f));
    std::int64_t local = 0;
    std::int64_t global = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &local));
    if (local <= prev || local >= nt) {
      return Status::OutOfRange("snapshot: task record out of order");
    }
    prev = local;
    const auto ti = static_cast<std::size_t>(local);
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &global));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &p.task_arrival_time_[ti]));
    LTC_RETURN_IF_ERROR(
        snap::FieldDouble(f, 4, &p.instance_.tasks[ti].location.x));
    LTC_RETURN_IF_ERROR(
        snap::FieldDouble(f, 5, &p.instance_.tasks[ti].location.y));
    p.task_global_[ti] = static_cast<model::TaskId>(global);
    p.open_[ti] = 1;
  }

  // Workers: the dense local arrival-index space, placeholders for the
  // workers no live state references, then the live workers' records.
  std::int64_t n_live = 0;
  std::int64_t nw = 0;
  LTC_RETURN_IF_ERROR(
      ReadIdSpace(reader, "pworkers", max_workers, &n_live, &nw));
  const auto nws = static_cast<std::size_t>(nw);
  // Growth headroom, as the live engine's geometric growth leaves it:
  // without it the first arrival after a restore copies the whole array.
  p.instance_.workers.reserve(2 * nws);
  p.worker_global_.reserve(2 * nws);
  p.instance_.workers.resize(nws);
  for (std::size_t i = 0; i < nws; ++i) {
    p.instance_.workers[i].index = static_cast<model::WorkerIndex>(i + 1);
  }
  p.worker_global_.assign(nws, 0);
  prev = 0;
  for (std::int64_t i = 0; i < n_live; ++i) {
    LTC_RETURN_IF_ERROR(reader->Read("pw", 6, &f));
    std::int64_t local = 0;
    std::int64_t global = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &local));
    if (local <= prev || local > nw) {
      return Status::OutOfRange("snapshot: worker record out of order");
    }
    prev = local;
    model::Worker& worker =
        p.instance_.workers[static_cast<std::size_t>(local) - 1];
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &global));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &worker.location.x));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &worker.location.y));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 5, &worker.historical_accuracy));
    p.worker_global_[static_cast<std::size_t>(local) - 1] =
        static_cast<model::WorkerIndex>(global);
  }

  // The open micro-batch.
  LTC_RETURN_IF_ERROR(reader->Read("pbatch", 3, &f));
  std::int64_t batch_n = 0;
  LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &p.batch_open_time_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &batch_n));
  if (batch_n < 0 || f.size() != static_cast<std::size_t>(batch_n) + 3) {
    return Status::InvalidArgument("snapshot: batch record length mismatch");
  }
  for (std::int64_t i = 0; i < batch_n; ++i) {
    std::int64_t w = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, static_cast<std::size_t>(i) + 3, &w));
    if (w < 1 || w > nw) {
      return Status::OutOfRange("snapshot: batch worker out of range");
    }
    p.batch_.push_back(static_cast<model::WorkerIndex>(w));
  }

  LTC_RETURN_IF_ERROR(reader->Read("pcounters", 6, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &p.batches_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &p.max_batch_size_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &p.tasks_completed_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 4, &p.routes_created_));
  LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 5, &p.route_travel_time_));

  // Latency samples (metrics parity across restarts, not schedule inputs).
  for (auto [key, samples] :
       {std::pair{"plat_a", &p.assignment_latency_samples_},
        std::pair{"plat_c", &p.completion_latency_samples_}}) {
    std::int64_t n_samples = 0;
    LTC_RETURN_IF_ERROR(reader->ReadCount(key, &n_samples));
    samples->reserve(2 * static_cast<std::size_t>(n_samples));
    samples->resize(static_cast<std::size_t>(n_samples));
    for (double& v : *samples) {
      LTC_RETURN_IF_ERROR(reader->Read("l", 2, &f));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &v));
    }
  }

  // Scheduler blob, passed on as a view: restore against the re-grown
  // instance, retiring the closed tasks.
  std::int64_t sched_lines = 0;
  std::string_view blob;
  LTC_RETURN_IF_ERROR(reader->ReadCount("sched", &sched_lines));
  LTC_RETURN_IF_ERROR(reader->ReadBlock(sched_lines, &blob));
  LTC_ASSIGN_OR_RETURN(p.scheduler_, MakePipelineScheduler(config.options));
  LTC_RETURN_IF_ERROR(p.scheduler_->RestoreState(
      p.instance_,
      algo::OnlineScheduler::StreamShardContext{config.shard_id,
                                                config.options.shards},
      p.open_, blob));

  if (config.options.route_workers) {
    const geo::Metric& metric = *p.instance_.accuracy->DistanceMetric();
    std::int64_t n_routes = 0;
    LTC_RETURN_IF_ERROR(reader->ReadCount("proutes", &n_routes));
    std::vector<std::pair<model::TaskId, geo::Point>> stops;
    for (std::int64_t r = 0; r < n_routes; ++r) {
      LTC_RETURN_IF_ERROR(reader->Read("pr", 7, &f));
      std::int64_t w = 0;
      geo::Point origin;
      double start_time = 0.0;
      std::int64_t visited = 0;
      std::int64_t n_stops = 0;
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &w));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &origin.x));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &origin.y));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &start_time));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 5, &visited));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 6, &n_stops));
      if (w < 1 || w > nw || visited < 0 || visited > n_stops ||
          n_stops < 0 || n_stops > reader->unread_lines()) {
        return Status::OutOfRange("snapshot: route record out of range");
      }
      stops.clear();
      for (std::int64_t s = 0; s < n_stops; ++s) {
        LTC_RETURN_IF_ERROR(reader->Read("ps", 4, &f));
        std::int64_t task = 0;
        geo::Point location;
        LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &task));
        LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &location.x));
        LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &location.y));
        stops.emplace_back(static_cast<model::TaskId>(task), location);
      }
      // FromStops recomputes leg costs and reach times from the metric, so
      // the restored route emits the exact moves the live one would have.
      const auto worker = static_cast<model::WorkerIndex>(w);
      model::WorkerRoute route = model::WorkerRoute::FromStops(
          metric, origin, start_time, stops, static_cast<std::size_t>(visited));
      p.QueueRoute(worker, route);
      p.routes_.emplace(worker, std::move(route));
    }
  }
  if (config.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    LTC_RETURN_IF_ERROR(p.InitForecast());
    std::int64_t blob_lines = 0;
    LTC_RETURN_IF_ERROR(reader->ReadCount("pfcst", &blob_lines));
    LTC_RETURN_IF_ERROR(reader->ReadBlock(blob_lines, &blob));
    LTC_RETURN_IF_ERROR(p.forecast_->RestoreFrom(blob));
    LTC_RETURN_IF_ERROR(reader->Read("pdl", 4, &f));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &p.batch_flush_time_));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &p.quiet_flushes_));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &p.deadline_extensions_));
  }
  LTC_RETURN_IF_ERROR(reader->Read("endpipe", 1, &f));

  // Derived state. A task is open exactly when it is below delta
  // (CloseCompleted's invariant), and the grid is rebuilt over the open
  // set in ascending local-id order, which matches incremental maintenance
  // query-for-query (the sorted-bucket invariant of geo/grid_index.h).
  const model::Arrangement& arr = p.scheduler_->arrangement();
  if (arr.num_tasks() != nt) {
    return Status::Internal("snapshot: scheduler/task count mismatch");
  }
  if (config.cell_size.has_value()) {
    LTC_ASSIGN_OR_RETURN(
        auto grid,
        geo::GridIndex::BuildDynamic(config.options.world, *config.cell_size));
    p.grid_.emplace(std::move(grid));
  }
  for (std::int64_t t = 0; t < nt; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (!p.open_[ti]) continue;
    if (arr.TaskCompleted(static_cast<model::TaskId>(t))) {
      return Status::InvalidArgument("snapshot: open task already complete");
    }
    if (p.grid_.has_value()) {
      LTC_RETURN_IF_ERROR(p.grid_->Insert(static_cast<model::TaskId>(t),
                                          p.instance_.tasks[ti].location));
    }
  }
  return pipeline;
}

StatusOr<model::TaskId> StreamPipeline::AddTask(model::TaskId global_id,
                                                double time,
                                                const geo::Point& location) {
  const auto id = static_cast<model::TaskId>(instance_.num_tasks());
  model::Task task;
  task.id = id;
  task.location = location;
  instance_.tasks.push_back(task);
  task_arrival_time_.push_back(time);
  task_global_.push_back(global_id);
  open_.push_back(1);
  if (grid_.has_value()) {
    LTC_RETURN_IF_ERROR(grid_->Insert(id, location));
  }
  if (forecast_.has_value()) forecast_->OnTaskArrival(location, time);
  LTC_RETURN_IF_ERROR(scheduler_->OnTaskAdded(id));
  return id;
}

Status StreamPipeline::MoveTask(model::TaskId local_id,
                                const geo::Point& location) {
  if (local_id < 0 ||
      static_cast<std::int64_t>(local_id) >= instance_.num_tasks()) {
    return Status::InvalidArgument(
        StrFormat("move references unknown local task %d", local_id));
  }
  instance_.tasks[static_cast<std::size_t>(local_id)].location = location;
  if (open_[static_cast<std::size_t>(local_id)] && grid_.has_value()) {
    LTC_RETURN_IF_ERROR(grid_->Relocate(local_id, location));
  }
  return Status::OK();
}

Status StreamPipeline::BufferWorker(model::WorkerIndex global_index,
                                    const geo::Point& location,
                                    double accuracy, double time,
                                    bool* flush_now) {
  *flush_now = false;
  model::Worker worker;
  worker.index = static_cast<model::WorkerIndex>(instance_.num_workers() + 1);
  worker.location = location;
  worker.historical_accuracy = accuracy;
  instance_.workers.push_back(worker);
  worker_global_.push_back(global_index);

  const bool opened = batch_.empty();
  if (opened) batch_open_time_ = time;
  batch_.push_back(worker.index);
  const bool hit_max =
      config_.options.max_batch > 0 &&
      static_cast<std::int64_t>(batch_.size()) >= config_.options.max_batch;

  if (config_.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    // Record the arrival first: the prediction for the cell's *next*
    // arrival conditions on everything seen so far, this worker included.
    forecast_->OnWorkerArrival(location, time);
    if (hit_max) {
      *flush_now = true;
      return Status::OK();
    }
    const double cap_end = batch_open_time_ + config_.options.batch_deadline;
    const double rate = forecast_->WorkerRate(location, time);
    // Expected wait to the next worker arrival in this cell (1/rate); a
    // prediction at or past the cap means holding buys nothing — flush at
    // this arrival's instant (quiet cell). Otherwise position the flush at
    // the predicted instant, only ever extending (an early prediction
    // never retracts a later one) and never past the cap.
    const double target = rate > 0.0 ? time + 1.0 / rate : cap_end;
    if (!(target < cap_end)) {
      ++quiet_flushes_;
      *flush_now = true;
      return Status::OK();
    }
    if (opened) {
      batch_flush_time_ = target;
    } else if (target > batch_flush_time_) {
      batch_flush_time_ = target;
      ++deadline_extensions_;
    }
    return Status::OK();
  }

  *flush_now = hit_max || config_.options.batch_deadline == 0.0;
  return Status::OK();
}

void StreamPipeline::PrepareGather() {
  if (gather_slots_.size() < batch_.size()) {
    gather_slots_.resize(batch_.size());
  }
}

void StreamPipeline::GatherSlot(std::size_t i) {
  const model::Worker& worker =
      instance_.workers[static_cast<std::size_t>(batch_[i]) - 1];
  std::vector<model::TaskId>* out = &gather_slots_[i];
  out->clear();
  if (grid_.has_value()) {
    const auto radius =
        instance_.accuracy->EligibleRadius(worker, instance_.acc_min);
    if (!radius.has_value()) return;  // probe had structure; worker must too
    if (*radius < 0.0) return;        // empty disk: nothing in reach
    auto check = [&](std::int64_t id) {
      const auto t = static_cast<model::TaskId>(id);
      // Exact for distance-monotone models; re-check keeps approximate
      // EligibleRadius implementations safe (same policy as
      // EligibilityIndex).
      if (instance_.Eligible(worker.index, t)) out->push_back(t);
    };
    const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
    if (metric.euclidean()) {
      // Fast path: the templated grid visitor, no std::function hop.
      grid_->ForEachInRadius(worker.location, *radius, check);
    } else {
      // Grid pruning stays a superset under any conforming metric (the
      // metric ball of radius r sits inside the Euclidean disk of radius
      // r — geo/metric.h); EligibleWithin applies the exact filter.
      metric.EligibleWithin(*grid_, worker.location, *radius, check);
    }
    // The grid emits cell order; the scheduler contract wants ascending ids.
    std::sort(out->begin(), out->end());
    return;
  }
  for (std::int64_t t = 0; t < instance_.num_tasks(); ++t) {
    if (open_[static_cast<std::size_t>(t)] &&
        instance_.Eligible(worker.index, static_cast<model::TaskId>(t))) {
      out->push_back(static_cast<model::TaskId>(t));
    }
  }
}

Status StreamPipeline::CommitBatch(double flush_time) {
  if (batch_.empty()) return Status::OK();
  const std::size_t n = batch_.size();
  ++batches_;
  max_batch_size_ = std::max(max_batch_size_, static_cast<std::int64_t>(n));
  // Route progress up to this flush instant is emitted before this round's
  // commitments extend any route.
  if (config_.options.route_workers) AdvanceRoutes(flush_time);

  if (scheduler_->SchedulesWholeBatch()) {
    // Batch protocol: the whole flushed batch in arrival order, one call.
    // The scheduler may buffer (commits can reference workers admitted in
    // earlier flushes) — every commitment it does make lands at this
    // flush's instant, which keeps the log a pure function of the admitted
    // sequence.
    candidate_ptrs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      candidate_ptrs_.push_back(&gather_slots_[i]);
    }
    commits_scratch_.clear();
    LTC_RETURN_IF_ERROR(scheduler_->OnBatchWithCandidates(
        batch_, candidate_ptrs_, &commits_scratch_));
    RecordCommits(commits_scratch_, flush_time);
    batch_.clear();
    return Status::OK();
  }

  // Strictly in arrival order. The scheduler re-filters tasks completed by
  // earlier workers of this batch; the pipeline closes completed tasks
  // immediately so the next batch's gather never sees them.
  for (std::size_t i = 0; i < n; ++i) {
    const model::Worker& w =
        instance_.workers[static_cast<std::size_t>(batch_[i]) - 1];
    LTC_RETURN_IF_ERROR(scheduler_->OnArrivalWithCandidates(
        w, gather_slots_[i], &assigned_scratch_));
    for (model::TaskId t : assigned_scratch_) {
      pending_assignments_.push_back(StreamAssignment{
          flush_time, worker_global_[static_cast<std::size_t>(w.index) - 1],
          task_global_[static_cast<std::size_t>(t)]});
      assignment_latency_samples_.push_back(
          flush_time - task_arrival_time_[static_cast<std::size_t>(t)]);
      if (config_.options.route_workers) {
        RouteAssignment(w.index, t, flush_time);
      }
    }
    CloseCompleted(assigned_scratch_, flush_time);
  }
  FoldNewRoutes();
  batch_.clear();
  return Status::OK();
}

Status StreamPipeline::CommitStreamEnd(double end_time) {
  // Stream end also closes the move log: whatever route progress lands at
  // or before the end instant is emitted (stops beyond it stay in flight).
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  if (!scheduler_->SchedulesWholeBatch()) return Status::OK();
  commits_scratch_.clear();
  LTC_RETURN_IF_ERROR(scheduler_->OnStreamEnd(&commits_scratch_));
  if (commits_scratch_.empty()) return Status::OK();
  ++batches_;  // the final partial batch is a real commit round
  RecordCommits(commits_scratch_, end_time);
  // Commitments made at the end instant can complete zero-length legs
  // (stop at the worker's own location) exactly at end_time.
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  return Status::OK();
}

void StreamPipeline::RecordCommits(
    const std::vector<algo::OnlineScheduler::StreamCommit>& commits,
    double time) {
  assigned_scratch_.clear();
  for (const auto& commit : commits) {
    pending_assignments_.push_back(StreamAssignment{
        time, worker_global_[static_cast<std::size_t>(commit.worker) - 1],
        task_global_[static_cast<std::size_t>(commit.task)]});
    assignment_latency_samples_.push_back(
        time - task_arrival_time_[static_cast<std::size_t>(commit.task)]);
    assigned_scratch_.push_back(commit.task);
    if (config_.options.route_workers) {
      RouteAssignment(commit.worker, commit.task, time);
    }
  }
  CloseCompleted(assigned_scratch_, time);
  FoldNewRoutes();
}

void StreamPipeline::AdvanceRoutes(double now) {
  due_scratch_.clear();
  while (!route_due_.empty() && route_due_.top().first <= now) {
    const auto [time, w] = route_due_.top();
    route_due_.pop();
    const auto it = routes_.find(w);
    if (it == routes_.end()) continue;  // stale entry of a finished route
    const model::WorkerRoute& route = it->second;
    if (!route.done() && route.stops()[route.visited()].reach_time == time) {
      due_scratch_.push_back(w);
    }
  }
  // Ascending local-worker order, each route once: the order the walk
  // over routes_ would emit in, restricted to the routes that emit.
  std::sort(due_scratch_.begin(), due_scratch_.end());
  due_scratch_.erase(std::unique(due_scratch_.begin(), due_scratch_.end()),
                     due_scratch_.end());
  for (const model::WorkerIndex w : due_scratch_) {
    const auto it = routes_.find(w);
    model::WorkerRoute& route = it->second;
    const model::WorkerIndex global =
        worker_global_[static_cast<std::size_t>(w) - 1];
    route.AdvanceTo(now, [&](const model::WorkerRoute::Stop& stop) {
      pending_moves_.push_back(
          WorkerMove{stop.reach_time, global, stop.location, stop.task});
    });
    // A finished route is history: its cost is already folded into the
    // counters, and its worker is never assigned again.
    if (route.done()) {
      routes_.erase(it);
    } else {
      QueueRoute(w, route);
    }
  }
}

void StreamPipeline::QueueRoute(model::WorkerIndex w,
                                const model::WorkerRoute& route) {
  if (!route.done()) {
    route_due_.emplace(route.stops()[route.visited()].reach_time, w);
  }
}

void StreamPipeline::RouteAssignment(model::WorkerIndex w, model::TaskId t,
                                     double time) {
  auto it = routes_.find(w);
  if (it == routes_.end()) {
    const model::Worker& worker =
        instance_.workers[static_cast<std::size_t>(w) - 1];
    it = routes_
             .emplace(w, model::WorkerRoute(worker.location, time))
             .first;
    new_routes_.push_back(w);
    ++routes_created_;
  }
  const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
  // Stops carry the *global* task id (moves are global records) and the
  // task's location as of commit time.
  it->second.Insert(metric, task_global_[static_cast<std::size_t>(t)],
                    instance_.tasks[static_cast<std::size_t>(t)].location);
  QueueRoute(w, it->second);
}

void StreamPipeline::FoldNewRoutes() {
  // Ascending local-worker order: a round's routes all belong to workers
  // admitted after every earlier round's, so this adds each route's cost
  // in exactly the order a walk over all routes would.
  std::sort(new_routes_.begin(), new_routes_.end());
  for (const model::WorkerIndex w : new_routes_) {
    route_travel_time_ += routes_.find(w)->second.total_cost();
  }
  new_routes_.clear();
}

void StreamPipeline::CloseCompleted(
    const std::vector<model::TaskId>& assigned, double flush_time) {
  for (model::TaskId t : assigned) {
    const auto slot = static_cast<std::size_t>(t);
    if (!open_[slot]) continue;
    if (!scheduler_->arrangement().TaskCompleted(t)) continue;
    open_[slot] = 0;
    if (grid_.has_value()) {
      // The id is present by the open_ invariant.
      const Status removed = grid_->Remove(t);
      (void)removed;
    }
    completion_latency_samples_.push_back(flush_time -
                                          task_arrival_time_[slot]);
    pending_closed_.push_back(task_global_[slot]);
    ++tasks_completed_;
  }
}

Status StreamPipeline::Validate() const {
  if (instance_.num_tasks() == 0) return Status::OK();
  return model::ValidateArrangement(instance_, scheduler_->arrangement(),
                                    /*require_completion=*/false);
}

std::int64_t StreamPipeline::open_tasks() const {
  std::int64_t open = 0;
  for (char o : open_) open += o != 0 ? 1 : 0;
  return open;
}

std::int64_t StreamPipeline::workers_used() const {
  return scheduler_->arrangement().workers_used();
}

}  // namespace svc
}  // namespace ltc
