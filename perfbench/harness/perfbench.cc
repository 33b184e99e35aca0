// perfbench: the C++ half of the benchmark. perfbench/run.py drives it;
// each subcommand does one step of a workload and prints one JSON object
// as its last stdout line.
//
//   gen         write a workload's inputs (events file, road graph) from a
//               seed and explicit sizes
//   seed-state  ingest a stream prefix through svc::RecoverableService
//               with periodic snapshots, then drop it without Finish (a
//               crash), leaving a state directory for ltc_serve to recover
//   wire-client closed-loop ltc-wire client: resume from the hello ack's
//               admitted count, send the rest in fixed-size frames, finish
//   check-wire  uninterrupted in-process replay of the wire stream: the
//               reference log the served log must equal, per-event apply
//               times, and the quality metrics
//   replay      the in-process workloads (road, batch): set-up and timed
//               replays through svc::ShardedStreamEngine, checked outside
//               the timed window
//   trace       the traced run: spans around every call into a layer's
//               public functions, aggregated into the per-layer metrics
//
// Every subcommand rejects flags it does not know and echoes the options it
// ran with, so run.py can prove its arguments took effect. The harness does
// not use common/flags: the svc layer registers flags of the same names
// (--seed, --tasks, ...) and the last registration would win.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "geo/metric.h"
#include "geo/road_graph.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "io/workload_io.h"
#include "model/accuracy.h"
#include "net/client.h"
#include "net/frame.h"
#include "svc/recoverable.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/snapshot.h"
#include "trace.h"

namespace perfbench {
namespace {

using ltc::Status;
using ltc::StatusOr;
using ltc::StrFormat;
namespace fs = std::filesystem;
namespace io = ltc::io;
namespace svc = ltc::svc;
namespace geo = ltc::geo;

// ---------------------------------------------------------------------------
// Arguments and output

class Args {
 public:
  static StatusOr<Args> Parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const auto eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        return Status::InvalidArgument("expected --key=value, got '" + a +
                                       "'");
      }
      args.values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
    return args;
  }
  std::string Str(const std::string& key, const std::string& def = "") {
    used_.push_back(key);
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  StatusOr<std::int64_t> Int(const std::string& key, std::int64_t def) {
    const std::string v = Str(key);
    if (v.empty()) return def;
    std::int64_t out = 0;
    if (!ltc::ParseInt64(v, &out)) {
      return Status::InvalidArgument("--" + key + " is not an integer");
    }
    return out;
  }
  StatusOr<double> Dbl(const std::string& key, double def) {
    const std::string v = Str(key);
    if (v.empty()) return def;
    double out = 0.0;
    if (!ltc::ParseDouble(v, &out)) {
      return Status::InvalidArgument("--" + key + " is not a number");
    }
    return out;
  }
  /// Fails on any flag no Str/Int/Dbl call asked for.
  Status CheckAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
};

/// Insertion-ordered JSON object of numbers, strings and raw members.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    return Raw(key, std::isfinite(v) ? StrFormat("%.17g", v) : "null");
  }
  Json& Int(const std::string& key, std::int64_t v) {
    return Raw(key, StrFormat("%lld", static_cast<long long>(v)));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + ltc::JsonEscape(v) + "\"");
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + raw;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(
                                                         v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Times `fn` repeatedly until at least `min_reps` runs and `min_seconds`
/// of work (capped at `max_reps`); returns the median run in seconds.
template <typename Fn>
StatusOr<double> MedianOfRepeats(int min_reps, double min_seconds,
                                 int max_reps, Fn&& fn) {
  std::vector<double> runs;
  double total = 0.0;
  while (runs.size() < static_cast<std::size_t>(min_reps) ||
         (total < min_seconds && runs.size() < static_cast<std::size_t>(
                                                   max_reps))) {
    const std::int64_t t0 = NowNs();
    LTC_RETURN_IF_ERROR(fn());
    const double s = Seconds(NowNs() - t0);
    runs.push_back(s);
    total += s;
  }
  return Median(runs);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Hex32(std::uint32_t v) { return StrFormat("%08x", v); }

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread to `cpu`. Best effort: on failure the thread
/// keeps the scheduler's placement, which only costs steadiness.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

std::int64_t DirBytes(const std::string& dir) {
  std::int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<std::int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Workloads

/// The engine configuration of each workload; every one runs at threads=1.
StatusOr<svc::StreamOptions> WorkloadOptions(const std::string& workload,
                                             std::uint64_t seed) {
  svc::StreamOptions o;
  o.threads = 1;
  o.seed = seed;
  o.validate = false;  // validated outside the timed window
  if (workload == "wire") {
    o.algorithm = "LAF";
    o.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};
  } else if (workload == "road") {
    o.algorithm = "LAF";
    o.route_workers = true;
    o.world = geo::Rect{0.0, 0.0, 400.0, 400.0};
  } else if (workload == "batch") {
    o.algorithm = "MCF";
    o.deadline_policy = svc::DeadlinePolicy::kAdaptive;
    o.batch_deadline = 0.5;  // the adaptive policy's cap
    o.forecast_horizon = 8.0;
    o.shards = 4;
    o.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return o;
}

std::string OptionsJson(const svc::StreamOptions& o) {
  return Json()
      .Str("algorithm", o.algorithm)
      .Str("deadline", o.deadline_policy == svc::DeadlinePolicy::kAdaptive
                           ? "adaptive"
                           : StrFormat("%g", o.batch_deadline))
      .Int("shards", o.shards)
      .Int("threads", o.threads)
      .Int("seed", static_cast<std::int64_t>(o.seed))
      .Bool("route_workers", o.route_workers)
      .Num("world_side", o.world.max_x)
      .Render();
}

/// The header label RenderAssignmentLog gets for a metric (as ltc_serve
/// derives it): empty for Euclidean, else the name before any '('.
std::string MetricLabel(const geo::Metric& metric) {
  if (metric.euclidean()) return "";
  std::string name = metric.Name();
  const auto paren = name.find('(');
  if (paren != std::string::npos) name.resize(paren);
  return name;
}

/// The loaded inputs of a workload: the event log (accuracy rebound onto
/// the road metric for `road`) and the metric it runs under.
struct Inputs {
  io::EventLog log;
  std::shared_ptr<const geo::Metric> metric;  // null = Euclidean
};

/// Loads the events file and, with a road file, the road graph (the
/// set-up the in-process workloads time).
StatusOr<Inputs> LoadInputs(const std::string& events_path,
                            const std::string& road_path) {
  Inputs in;
  LTC_ASSIGN_OR_RETURN(in.log, io::LoadEventLog(events_path));
  if (!road_path.empty()) {
    LTC_ASSIGN_OR_RETURN(geo::RoadGraph graph, geo::RoadGraph::Load(road_path));
    in.metric = std::make_shared<geo::RoadMetric>(
        std::make_shared<geo::RoadGraph>(std::move(graph)));
    LTC_ASSIGN_OR_RETURN(in.log.accuracy,
                         ltc::model::RebindMetric(*in.log.accuracy, in.metric));
  }
  return in;
}

/// The deterministic paper/quality metrics of a finished run.
struct Quality {
  std::int64_t latency_workers = 0;  // max assigned worker index
  double completed_frac = 0.0;
  double completion_p99_st = 0.0;   // stream time units
};

Quality QualityOf(const svc::ShardedStreamEngine& engine,
                  const svc::StreamMetrics& m) {
  Quality q;
  q.latency_workers = engine.max_assigned_worker();
  q.completed_frac = m.task_events > 0
                         ? static_cast<double>(m.tasks_completed) /
                               static_cast<double>(m.task_events)
                         : 0.0;
  q.completion_p99_st = m.completion_latency.p99;
  return q;
}

std::string Render(const svc::StreamOptions& options,
                   const svc::ShardedStreamEngine& engine,
                   const svc::StreamMetrics& metrics,
                   const io::EventLog& header) {
  return svc::RenderAssignmentLog(
      options, engine.assignments(), metrics, &engine.worker_moves(),
      header.accuracy != nullptr ? MetricLabel(*header.accuracy->DistanceMetric())
                                 : "");
}

/// One replay through a fresh engine, timing every OnEvent call.
struct Replay {
  double seconds = 0.0;  // first event to Finish() return
  std::string log;
  std::uint32_t log_crc = 0;
  svc::StreamMetrics metrics;
  Quality quality;
  std::int64_t events_applied = 0;
};

/// Replays `log` through `engine`, fresh from Create, appending each
/// OnEvent call's time to `apply_us` (callers reuse one buffer so its
/// footprint does not grow with the replay count).
StatusOr<Replay> TimedReplay(std::unique_ptr<svc::ShardedStreamEngine> engine,
                             const io::EventLog& log,
                             const svc::StreamOptions& options,
                             std::vector<double>* apply_us, bool validate) {
  Replay r;
  apply_us->reserve(apply_us->size() + log.events.size());
  const std::int64_t t0 = NowNs();
  for (const io::Event& e : log.events) {
    const std::int64_t a = NowNs();
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
    apply_us->push_back(static_cast<double>(NowNs() - a) / 1e3);
    ++r.events_applied;
  }
  LTC_ASSIGN_OR_RETURN(r.metrics, engine->Finish());
  r.seconds = Seconds(NowNs() - t0);
  // Outside the timed window: render, quality, validation.
  r.log = Render(options, *engine, r.metrics, log);
  r.log_crc = ltc::Crc32(r.log);
  r.quality = QualityOf(*engine, r.metrics);
  if (validate) {
    for (int s = 0; s < engine->num_shards(); ++s) {
      LTC_RETURN_IF_ERROR(engine->pipeline(s).Validate().WithContext(
          StrFormat("shard %d arrangement", s)));
    }
  }
  return r;
}

std::string QualityJson(const Quality& q) {
  return Json()
      .Int("latency_workers", q.latency_workers)
      .Num("completed_frac", q.completed_frac)
      .Num("completion_p99_st", q.completion_p99_st)
      .Render();
}

// ---------------------------------------------------------------------------
// gen

Status CmdGen(Args& args) {
  ltc::gen::StreamConfig cfg;
  const std::string workload = args.Str("workload");
  const std::string dir = args.Str("dir");
  LTC_ASSIGN_OR_RETURN(const std::int64_t seed, args.Int("seed", -1));
  LTC_ASSIGN_OR_RETURN(cfg.num_tasks, args.Int("tasks", 0));
  LTC_ASSIGN_OR_RETURN(cfg.num_workers, args.Int("workers", 0));
  LTC_ASSIGN_OR_RETURN(cfg.task_rate, args.Dbl("task_rate", 50.0));
  LTC_ASSIGN_OR_RETURN(cfg.worker_rate, args.Dbl("worker_rate", 400.0));
  LTC_ASSIGN_OR_RETURN(cfg.grid_side, args.Dbl("side", 1000.0));
  LTC_ASSIGN_OR_RETURN(cfg.num_hotspots, args.Int("hotspots", 0));
  LTC_ASSIGN_OR_RETURN(cfg.hotspot_stddev, args.Dbl("hotspot_stddev", 40.0));
  LTC_ASSIGN_OR_RETURN(const std::int64_t road_cells,
                       args.Int("road_cells", 0));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  if (seed < 0 || dir.empty() || cfg.num_tasks <= 0 || cfg.num_workers <= 0 ||
      road_cells < 0) {
    return Status::InvalidArgument(
        "gen needs --seed, --dir, --tasks and --workers");
  }
  LTC_RETURN_IF_ERROR(WorkloadOptions(workload, 0).status());
  cfg.seed = static_cast<std::uint64_t>(seed);
  LTC_ASSIGN_OR_RETURN(const io::EventLog log,
                       ltc::gen::GenerateStreamEvents(cfg));
  LTC_RETURN_IF_ERROR(io::SaveEventLog(log, dir + "/events.txt"));

  // With --road_cells (the road workload), the street grid of the world.
  std::int64_t road_nodes = 0;
  if (road_cells > 0) {
    ltc::gen::RoadConfig road;
    road.rows = static_cast<std::int32_t>(road_cells);
    road.cols = static_cast<std::int32_t>(road_cells);
    road.world_side = cfg.grid_side;
    LTC_ASSIGN_OR_RETURN(const geo::RoadGraph graph,
                         ltc::gen::GenerateGridRoadGraph(road));
    LTC_RETURN_IF_ERROR(graph.Save(dir + "/road.txt"));
    road_nodes = graph.num_nodes();
  }

  // Count what was actually generated, so the caller can check the sizes
  // it asked for took effect.
  std::int64_t tasks = 0, workers = 0;
  for (const io::Event& e : log.events) {
    tasks += e.kind == io::Event::Kind::kTaskArrival;
    workers += e.kind == io::Event::Kind::kWorkerArrival;
  }
  std::printf("%s\n", Json()
                          .Str("workload", workload)
                          .Int("seed", seed)
                          .Int("events", log.num_events())
                          .Int("tasks", tasks)
                          .Int("workers", workers)
                          .Int("hotspots", cfg.num_hotspots)
                          .Num("hotspot_stddev", cfg.hotspot_stddev)
                          .Num("task_rate", cfg.task_rate)
                          .Num("worker_rate", cfg.worker_rate)
                          .Num("side", cfg.grid_side)
                          .Int("road_nodes", road_nodes)
                          .Render()
                          .c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// wire: seed-state, wire-client, check-wire

Status CmdSeedState(Args& args) {
  const std::string events = args.Str("events");
  const std::string state = args.Str("state");
  LTC_ASSIGN_OR_RETURN(const std::int64_t seed, args.Int("seed", -1));
  LTC_ASSIGN_OR_RETURN(const std::int64_t prefix, args.Int("prefix", 0));
  LTC_ASSIGN_OR_RETURN(const std::int64_t snapshot_every,
                       args.Int("snapshot_every", 0));
  LTC_ASSIGN_OR_RETURN(const std::int64_t group_commit,
                       args.Int("group_commit", 64));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  if (seed < 0) return Status::InvalidArgument("seed-state needs --seed");
  LTC_ASSIGN_OR_RETURN(const io::EventLog log, io::LoadEventLog(events));
  if (prefix <= 0 || prefix > log.num_events()) {
    return Status::InvalidArgument("--prefix out of range");
  }
  svc::RecoverableService::Options sopts;
  sopts.state_dir = state;
  LTC_ASSIGN_OR_RETURN(sopts.stream,
                       WorkloadOptions("wire", static_cast<std::uint64_t>(seed)));
  sopts.wal.group_commit = group_commit;
  sopts.wal.fsync = false;
  sopts.snapshot_every = snapshot_every;
  std::int64_t applied = 0;
  {
    LTC_ASSIGN_OR_RETURN(auto service,
                         svc::RecoverableService::Open(log, sopts));
    if (service->recovery().recovered) {
      return Status::FailedPrecondition("state dir is not empty");
    }
    for (std::int64_t i = 0; i < prefix; ++i) {
      LTC_RETURN_IF_ERROR(
          service->Ingest(log.events[static_cast<std::size_t>(i)]));
    }
    applied = service->events_applied();
    // Destroyed without Finish(): a crash. The WAL's open group-commit
    // window is lost; the hello ack tells the client where to resume.
  }
  std::printf("%s\n", Json()
                          .Int("applied", applied)
                          .Int("snapshot_every", snapshot_every)
                          .Int("group_commit", group_commit)
                          .Raw("options", OptionsJson(sopts.stream))
                          .Render()
                          .c_str());
  return Status::OK();
}

Status CmdWireClient(Args& args) {
  const std::string events = args.Str("events");
  const std::string address = args.Str("address");
  LTC_ASSIGN_OR_RETURN(const std::int64_t frame_events, args.Int("frame", 512));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  LTC_ASSIGN_OR_RETURN(const io::EventLog log, io::LoadEventLog(events));
  if (frame_events <= 0) return Status::InvalidArgument("--frame must be > 0");

  std::unique_ptr<ltc::net::IngestClient> client;
  Status last = Status::Unavailable("never attempted");
  const std::int64_t deadline = NowNs() + 120'000'000'000LL;
  while (client == nullptr && NowNs() < deadline) {
    auto connected = ltc::net::IngestClient::Connect(address);
    if (connected.ok()) {
      client = std::move(connected).value();
    } else {
      last = connected.status();
      ::usleep(2000);
    }
  }
  if (client == nullptr) return last.WithContext("server did not come up");

  const auto resume = static_cast<std::int64_t>(client->admitted());
  if (resume > log.num_events()) {
    return Status::FailedPrecondition("server holds more events than sent");
  }
  std::int64_t frames = 0;
  std::int64_t frames_failed = 0;
  std::int64_t last_ack_ns = 0;
  const std::int64_t t0 = NowNs();
  std::vector<io::Event> frame;
  frame.reserve(static_cast<std::size_t>(frame_events));
  for (std::int64_t i = resume; i < log.num_events(); ++i) {
    frame.push_back(log.events[static_cast<std::size_t>(i)]);
    if (static_cast<std::int64_t>(frame.size()) == frame_events ||
        i + 1 == log.num_events()) {
      ++frames;
      const Status sent = client->SendEvents(frame);
      last_ack_ns = NowNs();
      if (!sent.ok()) {
        std::fprintf(stderr, "wire-client: frame %lld: %s\n",
                     static_cast<long long>(frames), sent.ToString().c_str());
        ++frames_failed;
        break;  // a given-up frame leaves the stream short; stop here
      }
      frame.clear();
    }
  }
  std::uint64_t final_admitted = 0;
  bool finished = false;
  if (frames_failed == 0) {
    auto ack = client->Finish();
    if (ack.ok()) {
      final_admitted = ack.value().admitted;
      finished = true;
    } else {
      std::fprintf(stderr, "wire-client: finish: %s\n",
                   ack.status().ToString().c_str());
    }
  }
  const std::int64_t t1 = NowNs();
  std::printf("%s\n", Json()
                          .Int("resume_from", resume)
                          .Int("sent", log.num_events() - resume)
                          .Int("frame_events", frame_events)
                          .Int("frames", frames)
                          .Int("frames_failed", frames_failed)
                          .Int("frames_retried", client->frames_retried())
                          .Bool("finished", finished)
                          .Int("admitted", static_cast<std::int64_t>(
                                               final_admitted))
                          .Num("stream_s", Seconds(t1 - t0))
                          .Num("drain_s", Seconds(t1 - last_ack_ns))
                          .Render()
                          .c_str());
  return Status::OK();
}

Status CmdCheckWire(Args& args) {
  const std::string events = args.Str("events");
  const std::string served_path = args.Str("log");
  LTC_ASSIGN_OR_RETURN(const std::int64_t seed, args.Int("seed", -1));
  LTC_ASSIGN_OR_RETURN(const std::int64_t reps, args.Int("reps", 3));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  if (seed < 0 || reps < 1) {
    return Status::InvalidArgument("check-wire needs --seed and --reps >= 1");
  }
  LTC_ASSIGN_OR_RETURN(const io::EventLog log, io::LoadEventLog(events));
  LTC_ASSIGN_OR_RETURN(const svc::StreamOptions options,
                       WorkloadOptions("wire", static_cast<std::uint64_t>(seed)));
  LTC_ASSIGN_OR_RETURN(const std::string served, io::ReadFile(served_path));
  std::vector<double> scratch;
  std::vector<Replay> replays;
  std::vector<double> p50s, p99s;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    LTC_ASSIGN_OR_RETURN(auto engine,
                         svc::ShardedStreamEngine::Create(log, options));
    scratch.clear();
    LTC_ASSIGN_OR_RETURN(Replay r,
                         TimedReplay(std::move(engine), log, options,
                                     &scratch, rep == 0));
    p50s.push_back(Percentile(scratch, 0.50));
    p99s.push_back(Percentile(scratch, 0.99));
    if (rep > 0) r.log.clear();  // only the first log is kept
    replays.push_back(std::move(r));
  }
  const Replay& first = replays.front();
  bool replays_identical = true;
  for (const Replay& r : replays) {
    replays_identical = replays_identical && r.log_crc == first.log_crc;
  }
  std::printf("%s\n",
              Json()
                  .Bool("log_identical", served == first.log)
                  .Bool("replays_identical", replays_identical)
                  .Str("log_crc", Hex32(first.log_crc))
                  .Int("events", log.num_events())
                  .Int("apply_samples", first.events_applied * reps)
                  .Num("apply_p50_us", Lowest(p50s))
                  .Num("apply_p99_us", Lowest(p99s))
                  .Raw("quality", QualityJson(first.quality))
                  .Raw("options", OptionsJson(options))
                  .Render()
                  .c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// replay (road, batch)

/// Set-up samples a replay pass takes at least: a one-stream workload (road)
/// is set up this many times per pass, a many-stream one (batch) once.
constexpr std::size_t kSetupSamplesPerPass = 4;

Status CmdReplay(Args& args) {
  const std::string workload = args.Str("workload");
  const std::vector<std::string> streams = ltc::Split(args.Str("events"), ',');
  const std::string road = args.Str("road");
  LTC_ASSIGN_OR_RETURN(const std::int64_t seed, args.Int("seed", -1));
  LTC_ASSIGN_OR_RETURN(const double seconds, args.Dbl("seconds", 0.0));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  if (seed < 0 || !(seconds > 0.0)) {
    return Status::InvalidArgument("replay needs --seed and --seconds > 0");
  }
  LTC_ASSIGN_OR_RETURN(const svc::StreamOptions options,
                       WorkloadOptions(workload, static_cast<std::uint64_t>(seed)));

  // A pass sets up and replays every stream once: load its events file (and
  // the road graph), engine Create, then a timed replay on the fresh
  // engine. Passes repeat until `seconds` of work and at least five passes,
  // so every stream's samples span the run. A pass times the set-up of all
  // its streams at least kSetupSamplesPerPass times (the last set-up's
  // engine replays), and set-up is the median sample.
  // On a shared machine noise only ever slows a sample, so the replay
  // timings are the best: per stream its fastest replay, summed over the
  // streams, and the percentiles of the pass whose pooled OnEvent times
  // read lowest. Each pass is pinned to the next CPU the process may use,
  // in turn: on a shared host one CPU can run slow for tens of seconds
  // while its neighbour is busy, and a thread left on it would carry that
  // into every sample.
  struct Pass {
    std::vector<double> setup_s;  // one sample per set-up of every stream
    double seconds = 0.0;
    std::int64_t events = 0;
    double apply_p50_us = 0.0;
    double apply_p99_us = 0.0;
  };
  std::vector<Pass> passes;
  std::vector<double> best_replay(streams.size(), HUGE_VAL);
  std::vector<double> apply_us;
  std::vector<Replay> firsts;  // each stream's validated first replay
  std::int64_t mismatched = 0;
  std::int64_t applied = 0;
  std::string metric_name = "euclidean";
  double busy = 0.0;
  const std::vector<int> cpus = AllowedCpus();
  const std::size_t setup_reps =
      (kSetupSamplesPerPass + streams.size() - 1) / streams.size();
  while (passes.size() < 5 || busy < seconds) {
    if (!cpus.empty()) PinTo(cpus[passes.size() % cpus.size()]);
    const bool first_pass = passes.empty();
    Pass pass;
    pass.setup_s.assign(setup_reps, 0.0);
    apply_us.clear();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      Inputs inputs;
      std::unique_ptr<svc::ShardedStreamEngine> engine;
      for (std::size_t rep = 0; rep < setup_reps; ++rep) {
        const std::int64_t t0 = NowNs();
        LTC_ASSIGN_OR_RETURN(inputs, LoadInputs(streams[i], road));
        LTC_ASSIGN_OR_RETURN(engine, svc::ShardedStreamEngine::Create(
                                         inputs.log, options));
        const double setup = Seconds(NowNs() - t0);
        pass.setup_s[rep] += setup;
        busy += setup;
      }
      LTC_ASSIGN_OR_RETURN(Replay r,
                           TimedReplay(std::move(engine), inputs.log, options,
                                       &apply_us, /*validate=*/first_pass));
      best_replay[i] = std::min(best_replay[i], r.seconds);
      busy += r.seconds;
      pass.seconds += r.seconds;
      pass.events += r.events_applied;
      r.log.clear();  // the digest is kept
      if (first_pass) {
        if (inputs.metric != nullptr) metric_name = inputs.metric->Name();
        firsts.push_back(std::move(r));
      } else {
        // Every later replay must reproduce the validated first one.
        mismatched += r.log_crc != firsts[i].log_crc;
      }
    }
    pass.apply_p50_us = Percentile(apply_us, 0.50);
    pass.apply_p99_us = Percentile(apply_us, 0.99);
    applied += pass.events;
    std::fprintf(stderr, "pass %zu: set-up %.4f s, %.1f events/s, "
                 "apply p50 %.3f us p99 %.3f us\n", passes.size() + 1,
                 Median(pass.setup_s),
                 static_cast<double>(pass.events) / pass.seconds,
                 pass.apply_p50_us, pass.apply_p99_us);
    passes.push_back(pass);
  }
  const double peak_rss_mb = PeakRssMb();

  // Quality over the streams: completion pooled, the rest the median
  // stream's value.
  std::int64_t completed = 0, task_events = 0, assignments = 0;
  std::vector<double> latency_workers, completion_p99, setups, p50s, p99s;
  std::string digests;
  for (const Replay& r : firsts) {
    completed += r.metrics.tasks_completed;
    task_events += r.metrics.task_events;
    assignments += r.metrics.assignments;
    latency_workers.push_back(static_cast<double>(r.quality.latency_workers));
    completion_p99.push_back(r.quality.completion_p99_st);
    digests += Hex32(r.log_crc);
  }
  Quality quality;
  quality.latency_workers = static_cast<std::int64_t>(Median(latency_workers));
  quality.completed_frac =
      task_events > 0 ? static_cast<double>(completed) /
                            static_cast<double>(task_events)
                      : 0.0;
  quality.completion_p99_st = Median(completion_p99);
  double replay_s = 0.0;
  for (const double s : best_replay) replay_s += s;
  for (const Pass& p : passes) {
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    p50s.push_back(p.apply_p50_us);
    p99s.push_back(p.apply_p99_us);
  }
  std::printf(
      "%s\n",
      Json()
          .Str("workload", workload)
          .Int("streams", static_cast<std::int64_t>(streams.size()))
          .Int("events", passes.front().events)
          .Int("passes", static_cast<std::int64_t>(passes.size()))
          .Int("events_applied", applied)
          .Int("replays_mismatched", mismatched)
          .Bool("validated", true)
          .Str("log_crc", Hex32(ltc::Crc32(digests)))
          .Num("setup_s", Median(setups))
          .Num("events_per_s",
               static_cast<double>(passes.front().events) / replay_s)
          .Int("apply_samples", applied)
          .Num("apply_p50_us", Lowest(p50s))
          .Num("apply_p99_us", Lowest(p99s))
          .Num("peak_rss_mb", peak_rss_mb)
          .Int("assignments", assignments)
          .Raw("quality", QualityJson(quality))
          .Raw("options", OptionsJson(options))
          .Str("metric", metric_name)
          .Render()
          .c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// trace

/// Crash-recovery probes per traced durable re-enactment.
constexpr int kRecoveryProbes = 5;
/// Untraced/traced engine pass pairs per traced run.
constexpr int kTracePairs = 3;

/// The re-enacted serving path of one stream, driven call by call from here
/// so every layer boundary can be timed. `durable` (wire only) adds what the
/// wire server does around the engine (RecoverableService + IngestServer):
/// the wire codec per frame, WAL append per event with a group-commit flush,
/// periodic snapshots, a crash-recovery probe, and the drain.
struct ReenactConfig {
  bool durable = false;
  std::int64_t frame_events = 512;
  std::int64_t group_commit = 64;
  std::int64_t snapshot_every = 0;
  std::string state_dir;
};

struct ReenactResult {
  double wall_s = 0.0;  // stream + drain, recovery probe excluded
  double drain_s = 0.0;
  std::int64_t events = 0;
  std::string log;
  svc::StreamMetrics metrics;
  std::int64_t payload_bytes = 0;
  std::int64_t wal_bytes = 0;
  std::int64_t snapshot_bytes = 0;  // last snapshot's engine state
  std::int64_t replayed_events = 0;
  std::int64_t state_bytes = 0;
  bool restore_identical = true;
  double shard_skew = 1.0;
};

StatusOr<ReenactResult> Reenact(const io::EventLog& log,
                                const svc::StreamOptions& options,
                                const ReenactConfig& cfg, Tracer* tracer) {
  ReenactResult out;
  std::unique_ptr<io::EventLogWriter> wal;
  std::optional<svc::SnapshotStore> store;
  if (cfg.durable) {
    fs::remove_all(cfg.state_dir);
    fs::create_directories(cfg.state_dir);
    io::WalOptions wopts;
    wopts.group_commit = 0;  // flushed from here, so Flush can be timed
    wopts.fsync = false;
    LTC_ASSIGN_OR_RETURN(
        wal, io::EventLogWriter::Create(cfg.state_dir + "/wal.events", log,
                                        wopts));
    LTC_ASSIGN_OR_RETURN(store,
                         svc::SnapshotStore::Open(cfg.state_dir + "/snapshots"));
  }
  LTC_ASSIGN_OR_RETURN(auto engine,
                       svc::ShardedStreamEngine::Create(log, options));

  std::int64_t batches_before = 0;
  auto total_batches = [&]() {
    std::int64_t b = 0;
    for (int s = 0; s < engine->num_shards(); ++s) {
      b += engine->pipeline(s).batches();
    }
    return b;
  };
  auto apply = [&](const io::Event& e) -> Status {
    ScopedSpan span(tracer, kOnEvent);
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
    if (tracer != nullptr) {
      const std::int64_t b = total_batches();
      if (b != batches_before) tracer->Rename(span.id(), kOnEventFlush);
      batches_before = b;
    }
    ++out.events;
    return Status::OK();
  };
  std::int64_t since_flush = 0;
  auto flush_wal = [&]() -> Status {
    ScopedSpan span(tracer, kWalFlush);
    since_flush = 0;
    return wal->Flush();
  };
  auto checkpoint = [&]() -> Status {
    LTC_RETURN_IF_ERROR(flush_wal());
    std::string state;
    {
      ScopedSpan span(tracer, kSerialize);
      LTC_RETURN_IF_ERROR(engine->SerializeTo(&state));
    }
    out.snapshot_bytes = static_cast<std::int64_t>(state.size());
    ScopedSpan span(tracer, kSnapWrite);
    return store->Write(out.events, state);
  };

  const std::int64_t t0 = NowNs();
  if (!cfg.durable) {
    for (const io::Event& e : log.events) LTC_RETURN_IF_ERROR(apply(e));
  } else {
    std::vector<io::Event> chunk;
    for (std::size_t begin = 0; begin < log.events.size();
         begin += static_cast<std::size_t>(cfg.frame_events)) {
      ScopedSpan frame(tracer, kFrame);
      const std::size_t end = std::min(
          log.events.size(), begin + static_cast<std::size_t>(cfg.frame_events));
      chunk.assign(log.events.begin() + static_cast<std::ptrdiff_t>(begin),
                   log.events.begin() + static_cast<std::ptrdiff_t>(end));
      std::string payload;
      {
        ScopedSpan span(tracer, kEncode);
        payload = ltc::net::EncodeEventsPayload(chunk);
      }
      out.payload_bytes += static_cast<std::int64_t>(payload.size()) + 5;
      std::vector<io::Event> decoded;
      {
        ScopedSpan span(tracer, kDecode);
        LTC_ASSIGN_OR_RETURN(decoded,
                             ltc::net::DecodeEventsPayload(payload));
      }
      for (const io::Event& e : decoded) {
        {
          ScopedSpan span(tracer, kWalAppend);
          LTC_RETURN_IF_ERROR(wal->Append(e));
        }
        if (++since_flush == cfg.group_commit) LTC_RETURN_IF_ERROR(flush_wal());
        LTC_RETURN_IF_ERROR(apply(e));
        if (cfg.snapshot_every > 0 && out.events % cfg.snapshot_every == 0) {
          LTC_RETURN_IF_ERROR(checkpoint());
        }
      }
    }
  }
  const std::int64_t t_stream = NowNs();

  // Crash-recovery probe (traced durable runs only, outside wall_s): load
  // the latest periodic snapshot, restore, replay the WAL suffix.
  std::vector<std::unique_ptr<svc::ShardedStreamEngine>> restored;
  if (cfg.durable && tracer != nullptr) {
    LTC_RETURN_IF_ERROR(flush_wal());
    for (int rep = 0; rep < kRecoveryProbes; ++rep) {
      svc::SnapshotStore::Loaded loaded;
      {
        ScopedSpan span(tracer, kSnapLoad);
        LTC_ASSIGN_OR_RETURN(loaded, store->LoadLatest());
      }
      std::unique_ptr<svc::ShardedStreamEngine> r;
      if (loaded.found) {
        ScopedSpan span(tracer, kRestore);
        LTC_ASSIGN_OR_RETURN(r, svc::ShardedStreamEngine::Restore(
                                    log, options, loaded.engine_state));
      } else {
        LTC_ASSIGN_OR_RETURN(r, svc::ShardedStreamEngine::Create(log, options));
      }
      // The suffix replay is engine work already measured above; no span.
      for (std::int64_t i = loaded.events_applied; i < log.num_events(); ++i) {
        LTC_RETURN_IF_ERROR(r->OnEvent(log.events[static_cast<std::size_t>(i)]));
      }
      out.replayed_events = log.num_events() - loaded.events_applied;
      restored.push_back(std::move(r));
    }
  }

  // Drain: final WAL flush + snapshot of the pre-Finish state, Finish,
  // WAL close, render (RecoverableService::Finish order).
  const std::int64_t t_drain = NowNs();
  if (cfg.durable) LTC_RETURN_IF_ERROR(checkpoint());
  {
    ScopedSpan span(tracer, kFinish);
    LTC_ASSIGN_OR_RETURN(out.metrics, engine->Finish());
  }
  if (cfg.durable) LTC_RETURN_IF_ERROR(wal->Close());
  {
    ScopedSpan span(tracer, kRender);
    out.log = Render(options, *engine, out.metrics, log);
  }
  const std::int64_t t_end = NowNs();
  out.drain_s = Seconds(t_end - t_drain);
  out.wall_s = Seconds(t_stream - t0) + out.drain_s;

  // The restored engines must finish to the same log.
  for (auto& r : restored) {
    svc::StreamMetrics m;
    {
      ScopedSpan span(tracer, kFinish);
      LTC_ASSIGN_OR_RETURN(m, r->Finish());
    }
    ScopedSpan span(tracer, kRender);
    out.restore_identical =
        out.restore_identical && Render(options, *r, m, log) == out.log;
  }

  if (cfg.durable) {
    out.wal_bytes = static_cast<std::int64_t>(
        fs::file_size(cfg.state_dir + "/wal.events"));
    out.state_bytes = DirBytes(cfg.state_dir);
  }
  double max_load = 0.0, sum_load = 0.0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    const auto& inst = engine->pipeline(s).instance();
    const double load =
        static_cast<double>(inst.num_tasks() + inst.num_workers());
    max_load = std::max(max_load, load);
    sum_load += load;
  }
  out.shard_skew = sum_load > 0.0 ? max_load * engine->num_shards() / sum_load
                                  : 1.0;
  return out;
}

double PerEvent(std::int64_t ns, std::int64_t events) {
  return events > 0 ? static_cast<double>(ns) / 1e3 /
                          static_cast<double>(events)
                    : 0.0;
}

double MedianMs(const SpanStats& st) {
  return Median(st.durations_us) / 1e3;
}

Status CmdTrace(Args& args) {
  const std::string workload = args.Str("workload");
  const std::string events = args.Str("events");
  const std::string road = args.Str("road");
  const std::string dir = args.Str("dir");
  LTC_ASSIGN_OR_RETURN(const std::int64_t seed, args.Int("seed", -1));
  LTC_ASSIGN_OR_RETURN(const std::int64_t snapshot_every,
                       args.Int("snapshot_every", 0));
  LTC_ASSIGN_OR_RETURN(const std::int64_t frame_events, args.Int("frame", 512));
  LTC_ASSIGN_OR_RETURN(const std::int64_t group_commit,
                       args.Int("group_commit", 64));
  LTC_RETURN_IF_ERROR(args.CheckAllUsed());
  if (seed < 0 || dir.empty() || (workload == "road" && road.empty())) {
    return Status::InvalidArgument(
        "trace needs --seed, --dir, and --road for the road workload");
  }
  LTC_ASSIGN_OR_RETURN(const svc::StreamOptions options,
                       WorkloadOptions(workload, static_cast<std::uint64_t>(seed)));
  const bool road_metric = workload == "road";
  LTC_ASSIGN_OR_RETURN(const Inputs inputs,
                       LoadInputs(events, road_metric ? road : ""));

  // io / geo set-up costs, each a median over repeated loads.
  LTC_ASSIGN_OR_RETURN(
      const double parse_s, MedianOfRepeats(5, 0.5, 100, [&]() -> Status {
        return io::LoadEventLog(events).status();
      }));
  double road_load_s = 0.0;
  if (road_metric) {
    LTC_ASSIGN_OR_RETURN(
        road_load_s, MedianOfRepeats(5, 0.5, 100, [&]() -> Status {
          return geo::RoadGraph::Load(road).status();
        }));
  }

  // Engine passes, untraced and traced in turn kTracePairs times: each
  // side's rate is its best pass, so the overhead compares like with like,
  // and the spans are the last traced pass's. The road pass routes the
  // engine's metric calls through TracingMetric; the Euclidean metric is
  // never wrapped.
  Tracer tracer;
  io::EventLog traced_log = inputs.log;
  if (road_metric) {
    LTC_ASSIGN_OR_RETURN(
        traced_log.accuracy,
        ltc::model::RebindMetric(
            *inputs.log.accuracy,
            std::make_shared<TracingMetric>(inputs.metric, &tracer)));
  }
  ReenactConfig engine_cfg;
  engine_cfg.durable = workload == "wire";
  engine_cfg.frame_events = frame_events;
  engine_cfg.group_commit = group_commit;
  engine_cfg.snapshot_every = snapshot_every;
  ReenactResult base, traced;
  double best_untraced_s = HUGE_VAL, best_traced_s = HUGE_VAL;
  double traced_total_s = 0.0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    engine_cfg.state_dir = dir + "/state_untraced";
    LTC_ASSIGN_OR_RETURN(base,
                         Reenact(inputs.log, options, engine_cfg, nullptr));
    best_untraced_s = std::min(best_untraced_s, base.wall_s);
    tracer = Tracer();
    engine_cfg.state_dir = dir + "/state_traced";
    const std::int64_t t0 = NowNs();
    LTC_ASSIGN_OR_RETURN(traced,
                         Reenact(traced_log, options, engine_cfg, &tracer));
    traced_total_s = Seconds(NowNs() - t0);
    best_traced_s = std::min(best_traced_s, traced.wall_s);
  }
  const std::vector<SpanStats> st = tracer.Stats();
  const double accounted = Seconds(tracer.RootNs()) / traced_total_s;
  LTC_RETURN_IF_ERROR(tracer.WriteCsv(dir + "/trace_engine.csv"));

  // Mean time per metric call; 0 where the engine never calls the
  // interface (the Euclidean fast path of wire and batch).
  auto per_call_us = [&st](SpanName name) {
    return st[name].count > 0 ? static_cast<double>(st[name].total_ns) / 1e3 /
                                    static_cast<double>(st[name].count)
                              : 0.0;
  };

  const std::int64_t n = traced.events;
  const std::int64_t engine_ns = st[kOnEvent].total_ns +
                                 st[kOnEventFlush].total_ns;
  const std::int64_t engine_self_ns =
      st[kOnEvent].self_ns + st[kOnEventFlush].self_ns;
  const svc::StreamMetrics& m = traced.metrics;
  const std::int64_t wal_appends = st[kWalAppend].count;
  const double untraced_eps =
      static_cast<double>(base.events) / best_untraced_s;
  const double traced_eps = static_cast<double>(n) / best_traced_s;

  Json layers;
  layers.Num("net.encode_us_per_event", PerEvent(st[kEncode].total_ns, n))
      .Num("net.decode_us_per_event", PerEvent(st[kDecode].total_ns, n))
      .Num("net.bytes_per_event",
           static_cast<double>(traced.payload_bytes) / static_cast<double>(n))
      .Num("io.wal_append_us_per_event",
           PerEvent(st[kWalAppend].total_ns, wal_appends))
      .Num("io.wal_flush_us", Median(st[kWalFlush].durations_us))
      .Int("io.wal_flushes", st[kWalFlush].count)
      .Num("io.wal_bytes_per_event",
           static_cast<double>(traced.wal_bytes) / static_cast<double>(n))
      .Num("io.parse_us_per_event",
           parse_s * 1e6 / static_cast<double>(inputs.log.num_events()))
      .Num("io.disk_mb", static_cast<double>(traced.state_bytes) / 1e6)
      .Num("svc.engine_us_per_event", PerEvent(engine_ns, n))
      .Num("svc.engine_self_us_per_event", PerEvent(engine_self_ns, n))
      .Int("svc.flush_rounds", st[kOnEventFlush].count)
      .Num("svc.flush_round_p50_us",
           Percentile(st[kOnEventFlush].durations_us, 0.5))
      .Num("svc.flush_round_p99_us",
           Percentile(st[kOnEventFlush].durations_us, 0.99))
      .Num("svc.buffer_event_us", Median(st[kOnEvent].durations_us))
      .Num("svc.shard_skew", traced.shard_skew)
      .Num("svc.handoff_skip_frac",
           m.worker_events > 0 ? static_cast<double>(m.handoff_skips) /
                                     static_cast<double>(m.worker_events)
                               : 0.0)
      .Num("svc.snapshot_serialize_ms", MedianMs(st[kSerialize]))
      .Num("svc.snapshot_write_ms", MedianMs(st[kSnapWrite]))
      .Int("svc.snapshots", st[kSnapWrite].count)
      .Num("svc.snapshot_mb", static_cast<double>(traced.snapshot_bytes) / 1e6)
      .Num("svc.snapshot_load_ms", MedianMs(st[kSnapLoad]))
      .Num("svc.restore_ms", MedianMs(st[kRestore]))
      .Int("svc.replayed_events", traced.replayed_events)
      .Num("svc.finish_ms", MedianMs(st[kFinish]))
      .Num("svc.render_ms", MedianMs(st[kRender]))
      .Num("svc.drain_s", traced.drain_s)
      .Num("fcst.quiet_flush_frac",
           m.batches > 0 ? static_cast<double>(m.quiet_flushes) /
                               static_cast<double>(m.batches)
                         : 0.0)
      .Num("fcst.extension_frac",
           m.worker_events > 0 ? static_cast<double>(m.deadline_extensions) /
                                     static_cast<double>(m.worker_events)
                               : 0.0)
      .Num("geo.road_load_ms", road_load_s * 1e3)
      .Int("geo.distance_calls", st[kDistance].count)
      .Num("geo.distance_us", per_call_us(kDistance))
      .Num("geo.distance_share",
           engine_ns > 0 ? 1.0 - static_cast<double>(engine_self_ns) /
                                     static_cast<double>(engine_ns)
                         : 0.0)
      .Int("geo.eligible_calls", st[kEligible].count)
      .Num("geo.eligible_us", per_call_us(kEligible))
      .Int("geo.lower_bound_calls", st[kLowerBound].count)
      .Int("model.worker_moves", m.worker_moves)
      .Int("model.routed_workers", m.routed_workers)
      .Num("trace.untraced_events_per_s", untraced_eps)
      .Num("trace.traced_events_per_s", traced_eps)
      .Num("trace.overhead_frac", 1.0 - traced_eps / untraced_eps)
      .Num("trace.accounted_frac", accounted);

  std::printf(
      "%s\n",
      Json()
          .Str("workload", workload)
          .Int("events", n)
          .Int("spans", static_cast<std::int64_t>(tracer.spans().size()))
          .Bool("traced_log_identical", traced.log == base.log)
          .Bool("restore_identical", traced.restore_identical)
          .Str("log_crc", Hex32(ltc::Crc32(base.log)))
          .Raw("layers", layers.Render())
          .Raw("options", OptionsJson(options))
          .Render()
          .c_str());
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench gen|seed-state|wire-client|check-wire|"
                 "replay|trace --key=value...\n");
    return 1;
  }
  auto args = Args::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 1;
  }
  const std::string cmd = argv[1];
  Status status = Status::InvalidArgument("unknown subcommand '" + cmd + "'");
  if (cmd == "gen") status = CmdGen(args.value());
  if (cmd == "seed-state") status = CmdSeedState(args.value());
  if (cmd == "wire-client") status = CmdWireClient(args.value());
  if (cmd == "check-wire") status = CmdCheckWire(args.value());
  if (cmd == "replay") status = CmdReplay(args.value());
  if (cmd == "trace") status = CmdTrace(args.value());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
