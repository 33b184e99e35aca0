// Crash-recovery tests for the durable service layer (DESIGN.md §11).
//
// The load-bearing property is determinism under restart: for a fixed
// (header, StreamOptions) configuration, an interrupted-and-recovered
// RecoverableService must emit an assignment log byte-identical to one
// that lived through the whole stream. The suite pins it three ways:
//   * a pure snapshot round-trip property (Serialize → Restore → continue
//     equals never-snapshotting) for every online scheduler × shard count;
//   * randomized crash points (destroying the service without Finish, the
//     crash model of io/wal.h) across schedulers × shards, recovered runs
//     compared byte-for-byte against golden uninterrupted runs, including
//     road-metric route workers and their move lines;
//   * explicit damage: torn WAL tails, corrupt and truncated snapshots, a
//     snapshot claiming more events than the WAL holds, and injected
//     wal/ingest faults (common/fault_points.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault_points.h"
#include "common/string_util.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "geo/road_graph.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "io/workload_io.h"
#include "model/accuracy.h"
#include "svc/recoverable.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"

namespace ltc {
namespace svc {
namespace {

io::EventLog MakeLog(std::int64_t tasks, std::int64_t workers,
                     std::uint64_t seed, double move_fraction = 0.0,
                     double grid_side = 1000.0) {
  gen::StreamConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_workers = workers;
  cfg.move_fraction = move_fraction;
  cfg.grid_side = grid_side;
  cfg.seed = seed;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  return std::move(log).value();
}

StreamOptions BaseOptions(const std::string& algorithm, int shards) {
  StreamOptions options;
  options.algorithm = algorithm;
  options.batch_deadline = 0.5;
  options.shards = shards;
  options.threads = 1;
  options.seed = 7;
  // Durable runs fix the world up front (svc/recoverable.h); moves make
  // post-hoc validation inapplicable anyway (svc/stream_engine.h).
  options.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};
  options.validate = false;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/ltc_recovery_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

RecoverableService::Options ServiceOptions(const std::string& state_dir,
                                           const StreamOptions& stream,
                                           std::int64_t snapshot_every,
                                           std::int64_t group_commit) {
  RecoverableService::Options o;
  o.state_dir = state_dir;
  o.stream = stream;
  o.snapshot_every = snapshot_every;
  o.wal.group_commit = group_commit;
  o.wal.fsync = false;  // durability against power loss is not under test
  return o;
}

/// Finishes `service` and returns everything it reports: the assignment
/// log, the metrics JSON (wall-clock fields zeroed, recovery fields left
/// out) and the sim::RunMetrics totals — all of which must be identical
/// across any crash point.
std::string FinishedOutputs(RecoverableService* service,
                            const StreamOptions& options) {
  ServeReport report;
  auto metrics = service->Finish();
  metrics.status().CheckOK();
  report.metrics = metrics.value();
  report.run = service->engine().RunMetricsView(0.0);
  std::string out =
      RenderAssignmentLog(options, service->assignments(), report.metrics,
                          &service->engine().worker_moves());
  out += ServeMetricsJson(report);
  out += StrFormat(
      "latency %lld completed %d workers_seen %lld workers_used %lld "
      "assignments %lld total_acc_star %.17g\n",
      static_cast<long long>(report.run.latency),
      report.run.completed ? 1 : 0,
      static_cast<long long>(report.run.stats.workers_seen),
      static_cast<long long>(report.run.stats.workers_used),
      static_cast<long long>(report.run.stats.assignments),
      report.run.stats.total_acc_star);
  return out;
}

/// The golden: one uninterrupted durable run over the whole log.
std::string GoldenLog(const io::EventLog& log, const StreamOptions& options,
                      const std::string& dir_name) {
  auto service = RecoverableService::Open(
      log, ServiceOptions(FreshDir(dir_name), options, 0, 64));
  service.status().CheckOK();
  for (const io::Event& e : log.events) {
    service.value()->Ingest(e).CheckOK();
  }
  return FinishedOutputs(service.value().get(), options);
}

struct SchedulerPoint {
  const char* algorithm;
  int shards;
};

const SchedulerPoint kSchedulerMatrix[] = {
    {"LAF", 1}, {"LAF", 4},    {"AAM", 1}, {"AAM", 4},
    {"Random", 1}, {"Random", 4}, {"MCF", 1}, {"MCF", 4},
};

// Satellite 4: Serialize → Restore → continue is assignment-identical to
// never snapshotting, for every online scheduler × shard count, at several
// cut points — the pure-engine core of the recovery contract (no WAL, no
// files, just the snapshot protocol). Two streams: the Table-IV world,
// where few tasks reach delta, and a 250-side world, where most do — so
// the snapshots hold closed tasks restored as retired placeholders.
TEST(SnapshotRoundTripTest, ContinuationMatchesUninterrupted) {
  for (const io::EventLog& log :
       {MakeLog(50, 1000, 11, /*move_fraction=*/0.15),
        MakeLog(50, 1000, 11, /*move_fraction=*/0.15, /*grid_side=*/250.0)}) {
    const std::int64_t n = log.num_events();
    for (const SchedulerPoint& point : kSchedulerMatrix) {
      const StreamOptions options = BaseOptions(point.algorithm, point.shards);

      auto golden = ShardedStreamEngine::Create(log, options);
      golden.status().CheckOK();
      for (const io::Event& e : log.events) {
        golden.value()->OnEvent(e).CheckOK();
      }
      auto golden_metrics = golden.value()->Finish();
      golden_metrics.status().CheckOK();
      const std::string golden_log = RenderAssignmentLog(
          options, golden.value()->assignments(), golden_metrics.value());

      for (const std::int64_t cut : {n / 4, n / 2, (3 * n) / 4, n - 1}) {
        auto engine = ShardedStreamEngine::Create(log, options);
        engine.status().CheckOK();
        for (std::int64_t i = 0; i < cut; ++i) {
          engine.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        std::string state;
        engine.value()->SerializeTo(&state).CheckOK();

        auto restored = ShardedStreamEngine::Restore(log, options, state);
        ASSERT_TRUE(restored.ok())
            << point.algorithm << "@s" << point.shards << " cut " << cut
            << ": " << restored.status().ToString();
        // The snapshot bytes are themselves deterministic: re-serialising the
        // restored engine reproduces them.
        std::string state2;
        restored.value()->SerializeTo(&state2).CheckOK();
        EXPECT_EQ(state, state2)
            << point.algorithm << "@s" << point.shards << " cut " << cut;

        for (std::int64_t i = cut; i < n; ++i) {
          restored.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        auto metrics = restored.value()->Finish();
        metrics.status().CheckOK();
        const std::string continued = RenderAssignmentLog(
            options, restored.value()->assignments(), metrics.value());
        EXPECT_EQ(continued, golden_log)
            << point.algorithm << "@s" << point.shards << " cut " << cut;
      }
    }
  }
}

// The acceptance sweep: >= 100 randomized crash points across schedulers ×
// shard counts. Each crash destroys the service mid-stream without Finish
// (dropping the WAL's unflushed group-commit window); the reopened service
// recovers, re-ingests the lost suffix from the source log, and must land
// on the golden byte-identical assignment log.
TEST(CrashRecoveryTest, RandomizedCrashPointsRecoverByteIdentical) {
  // The Table-IV world, where few tasks reach delta, and a 250-side world,
  // where most do (closed tasks restore as retired placeholders).
  const io::EventLog logs[] = {
      MakeLog(50, 1000, 23, /*move_fraction=*/0.1),
      MakeLog(50, 1000, 23, /*move_fraction=*/0.1, /*grid_side=*/250.0)};
  std::mt19937 rng(1234);

  int crashes = 0;
  for (int l = 0; l < 2; ++l) {
    const io::EventLog& log = logs[l];
    const std::int64_t n = log.num_events();
    std::uniform_int_distribution<std::int64_t> pick(1, n - 1);
    for (const SchedulerPoint& point : kSchedulerMatrix) {
      const StreamOptions options = BaseOptions(point.algorithm, point.shards);
      const std::string tag = std::string(point.algorithm) + "_s" +
                              std::to_string(point.shards) + "_l" +
                              std::to_string(l);
      const std::string golden = GoldenLog(log, options, "golden_" + tag);

      for (int rep = 0; rep < 7; ++rep) {
        const std::int64_t crash_at = pick(rng);
        const std::string dir =
            FreshDir("crash_" + tag + "_" + std::to_string(rep));
        // Snapshot and group-commit cadences deliberately small and co-prime,
        // so crash points land in every phase of both windows.
        const auto sopts = ServiceOptions(dir, options, 97, 16);
        {
          auto service = RecoverableService::Open(log, sopts);
          service.status().CheckOK();
          for (std::int64_t i = 0; i < crash_at; ++i) {
            service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
                .CheckOK();
          }
          // Crash: no Finish, no Close — the destructor drops the unflushed
          // WAL window (io/wal.h).
        }
        auto service = RecoverableService::Open(log, sopts);
        ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                  << service.status().ToString();
        const RecoverableService::RecoveryInfo& r = service.value()->recovery();
        EXPECT_TRUE(r.recovered);
        EXPECT_LE(r.wal_records, crash_at);
        EXPECT_EQ(service.value()->events_applied(), r.wal_records);
        for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        const std::string recovered_log =
            FinishedOutputs(service.value().get(), options);
        EXPECT_EQ(recovered_log, golden) << tag << " crash@" << crash_at;
        ++crashes;
      }
    }
  }
  EXPECT_GE(crashes, 100);
}

// The adaptive deadline's forecast state travels in the snapshot and the
// WAL replay re-derives the rest (DESIGN.md §13), so a crash-recovered
// adaptive service forecasts — and therefore flushes and assigns —
// byte-identically to an uninterrupted one.
TEST(CrashRecoveryTest, AdaptiveDeadlineRecoversByteIdentical) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 50;
  cfg.num_workers = 1000;
  cfg.num_hotspots = 3;  // exercise extensions, not just quiet flushes
  cfg.seed = 29;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  const std::int64_t n = log.num_events();

  for (int shards : {1, 3}) {
    StreamOptions options = BaseOptions("LAF", shards);
    options.deadline_policy = DeadlinePolicy::kAdaptive;
    const std::string tag = "adaptive_s" + std::to_string(shards);
    const std::string golden = GoldenLog(log, options, "golden_" + tag);
    EXPECT_NE(golden.find("policy adaptive"), std::string::npos);

    for (const std::int64_t crash_at : {n / 3, n / 2, (4 * n) / 5}) {
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(crash_at));
      const auto sopts = ServiceOptions(dir, options, 97, 16);
      {
        auto service = RecoverableService::Open(log, sopts);
        service.status().CheckOK();
        for (std::int64_t i = 0; i < crash_at; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        // Crash: destructor drops the unflushed group-commit window.
      }
      auto service = RecoverableService::Open(log, sopts);
      ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                << service.status().ToString();
      EXPECT_TRUE(service.value()->recovery().recovered);
      for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      const std::string recovered_log =
          FinishedOutputs(service.value().get(), options);
      EXPECT_EQ(recovered_log, golden) << tag << " crash@" << crash_at;
    }
  }
}

std::string NewestSnapshot(const std::string& snap_dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(snap_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (newest.empty() || name > newest) newest = name;
  }
  EXPECT_FALSE(newest.empty());
  return snap_dir + "/" + newest;
}

/// True when some space-separated token of `text` is a subnormal double.
bool HoldsSubnormal(const std::string& text) {
  for (const std::string& line : Split(text, '\n')) {
    for (const std::string& token : Split(line, ' ')) {
      char* end = nullptr;
      const double v = std::strtod(token.c_str(), &end);
      if (!token.empty() && *end == '\0' &&
          std::fpclassify(v) == FP_SUBNORMAL) {
        return true;
      }
    }
  }
  return false;
}

// With a forecast horizon of 0.001, a cell that sees workers ~0.71 time
// units after its last task decays that task rate below DBL_MIN, and
// "%.17g" writes the subnormal into the snapshot. Recovery has to parse
// it back (strtod flags it ERANGE) rather than refuse a CRC-valid
// snapshot, and must then reproduce the uninterrupted log.
TEST(CrashRecoveryTest, SubnormalForecastRateRecoversByteIdentical) {
  const io::EventLog log = MakeLog(50, 1000, 29);
  const std::int64_t n = log.num_events();
  for (int shards : {1, 3}) {
    StreamOptions options = BaseOptions("LAF", shards);
    options.deadline_policy = DeadlinePolicy::kAdaptive;
    options.forecast_horizon = 0.001;
    const std::string tag = "subnormal_s" + std::to_string(shards);
    const std::string golden = GoldenLog(log, options, "golden_" + tag);

    for (const std::int64_t crash_at : {n / 2, n - 20}) {
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(crash_at));
      const auto sopts = ServiceOptions(dir, options, 97, 16);
      {
        auto service = RecoverableService::Open(log, sopts);
        service.status().CheckOK();
        for (std::int64_t i = 0; i < crash_at; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
      }
      // The precondition: the snapshot recovery loads holds a subnormal.
      auto snapshot = io::ReadFile(NewestSnapshot(dir + "/snapshots"));
      snapshot.status().CheckOK();
      ASSERT_TRUE(HoldsSubnormal(snapshot.value())) << tag << " @" << crash_at;

      auto service = RecoverableService::Open(log, sopts);
      ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                << service.status().ToString();
      const RecoverableService::RecoveryInfo& r = service.value()->recovery();
      EXPECT_TRUE(r.recovered);
      EXPECT_EQ(r.snapshots_discarded, 0);
      EXPECT_GT(r.snapshot_events, 0);
      for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      const std::string recovered_log =
          FinishedOutputs(service.value().get(), options);
      EXPECT_EQ(recovered_log, golden) << tag << " crash@" << crash_at;
    }
  }
}

// Route workers on a road metric: the snapshot carries each route's stops
// and progress, Restore rebuilds the routes and their due-time queue, and
// the WAL suffix replays on top. The recovered log, worker-move ('m')
// lines included, must be byte-identical to the uninterrupted run.
TEST(CrashRecoveryTest, RoutedWorkersOnRoadMetricRecoverByteIdentical) {
  // A 20x20 street grid over a 200-side world: blocks of ~10 units, well
  // inside dmax = 30, so workers reach tasks and drive to them.
  gen::RoadConfig road;
  road.rows = 20;
  road.cols = 20;
  road.world_side = 200.0;
  road.seed = 5;
  auto graph = gen::GenerateGridRoadGraph(road);
  graph.status().CheckOK();
  const std::shared_ptr<const geo::Metric> metric =
      std::make_shared<geo::RoadMetric>(
          std::make_shared<geo::RoadGraph>(std::move(graph).value()));

  gen::StreamConfig cfg;
  cfg.num_tasks = 60;
  cfg.num_workers = 1500;
  cfg.task_rate = 2.0;  // a long stream: stops fall due inside it
  cfg.worker_rate = 50.0;
  cfg.grid_side = 200.0;
  cfg.seed = 31;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  io::EventLog log = std::move(generated).value();
  auto rebound = model::RebindMetric(*log.accuracy, metric);
  rebound.status().CheckOK();
  log.accuracy = std::move(rebound).value();
  const std::int64_t n = log.num_events();

  auto render = [](const StreamOptions& options, RecoverableService* service) {
    return FinishedOutputs(service, options);
  };

  for (const int shards : {1, 4}) {
    StreamOptions options = BaseOptions("LAF", shards);
    options.world = geo::Rect{0.0, 0.0, 200.0, 200.0};
    options.route_workers = true;
    const std::string tag = "routed_s" + std::to_string(shards);
    std::string golden;
    {
      auto sopts = ServiceOptions(FreshDir("golden_" + tag), options, 0, 64);
      sopts.metric = metric;
      auto service = RecoverableService::Open(log, sopts);
      service.status().CheckOK();
      for (const io::Event& e : log.events) {
        service.value()->Ingest(e).CheckOK();
      }
      golden = render(options, service.value().get());
    }
    ASSERT_NE(golden.find("\nm "), std::string::npos) << tag << ": no moves";

    for (const std::int64_t crash_at : {n / 4, n / 2, (3 * n) / 4, n - 1}) {
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(crash_at));
      auto sopts = ServiceOptions(dir, options, 97, 16);
      sopts.metric = metric;
      {
        auto service = RecoverableService::Open(log, sopts);
        service.status().CheckOK();
        for (std::int64_t i = 0; i < crash_at; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        // Crash: destructor drops the unflushed group-commit window.
      }
      auto service = RecoverableService::Open(log, sopts);
      ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                << service.status().ToString();
      EXPECT_TRUE(service.value()->recovery().recovered);
      EXPECT_GT(service.value()->recovery().snapshot_events, 0)
          << tag << " crash@" << crash_at;
      for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      EXPECT_EQ(render(options, service.value().get()), golden)
          << tag << " crash@" << crash_at;
    }
  }
}

// A torn final WAL record (partial write at crash) is truncated on reopen;
// the stream continues to the golden log.
TEST(CrashRecoveryTest, TornWalTailIsTruncatedAndRecovered) {
  const io::EventLog log = MakeLog(30, 600, 31);
  const StreamOptions options = BaseOptions("LAF", 4);
  const std::string golden = GoldenLog(log, options, "torn_golden");

  const std::string dir = FreshDir("torn");
  const auto sopts = ServiceOptions(dir, options, 0, 8);
  const std::int64_t crash_at = log.num_events() / 2;
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < crash_at; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
  }
  // Tear the tail: a record that lost the race with the crash.
  auto wal_text = io::ReadFile(dir + "/wal.events");
  wal_text.status().CheckOK();
  io::WriteFile(dir + "/wal.events", wal_text.value() + "w 3.25 41")
      .CheckOK();

  auto service = RecoverableService::Open(log, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service.value()->recovery().wal_truncated_bytes, 9);
  for (std::int64_t i = service.value()->events_applied();
       i < log.num_events(); ++i) {
    service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
        .CheckOK();
  }
  EXPECT_EQ(FinishedOutputs(service.value().get(), options), golden);
}

/// Crashes a durable run at `crash_at`, lets `damage` vandalise the state
/// dir, then recovers, finishes the stream, and returns (recovery info,
/// final log).
template <typename DamageFn>
std::string DamagedRecoveryLog(const io::EventLog& log,
                               const StreamOptions& options,
                               const std::string& dir, DamageFn damage,
                               RecoverableService::RecoveryInfo* info) {
  const auto sopts = ServiceOptions(dir, options, 50, 8);
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < (2 * log.num_events()) / 3; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
  }
  damage(dir + "/snapshots");
  auto service = RecoverableService::Open(log, sopts);
  service.status().CheckOK();
  *info = service.value()->recovery();
  for (std::int64_t i = service.value()->events_applied();
       i < log.num_events(); ++i) {
    service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
        .CheckOK();
  }
  return FinishedOutputs(service.value().get(), options);
}

// A corrupt newest snapshot (CRC mismatch) is discarded; recovery falls
// back to an older snapshot or full WAL replay and still reaches golden.
TEST(CrashRecoveryTest, CorruptSnapshotIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 37);
  const StreamOptions options = BaseOptions("AAM", 4);
  const std::string golden = GoldenLog(log, options, "corrupt_golden");

  RecoverableService::RecoveryInfo info;
  const std::string recovered = DamagedRecoveryLog(
      log, options, FreshDir("corrupt"),
      [](const std::string& snap_dir) {
        const std::string path = NewestSnapshot(snap_dir);
        auto text = io::ReadFile(path);
        text.status().CheckOK();
        std::string bytes = text.value();
        bytes[bytes.size() / 2] ^= 0x20;  // flip a bit mid-state
        io::WriteFile(path, bytes).CheckOK();
      },
      &info);
  EXPECT_GE(info.snapshots_discarded, 1);
  EXPECT_EQ(recovered, golden);
}

// A truncated snapshot (crash mid-write that somehow survived the atomic
// rename discipline) is likewise discarded.
TEST(CrashRecoveryTest, TruncatedSnapshotIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 41);
  const StreamOptions options = BaseOptions("Random", 1);
  const std::string golden = GoldenLog(log, options, "truncsnap_golden");

  RecoverableService::RecoveryInfo info;
  const std::string recovered = DamagedRecoveryLog(
      log, options, FreshDir("truncsnap"),
      [](const std::string& snap_dir) {
        const std::string path = NewestSnapshot(snap_dir);
        auto text = io::ReadFile(path);
        text.status().CheckOK();
        io::WriteFile(path, text.value().substr(0, text.value().size() / 2))
            .CheckOK();
      },
      &info);
  EXPECT_GE(info.snapshots_discarded, 1);
  EXPECT_EQ(recovered, golden);
}

// A snapshot that claims more events than the WAL durably holds (here:
// the WAL lost records after the snapshot landed) must not be trusted —
// recovery discards it rather than continuing from a future the WAL
// cannot replay.
TEST(CrashRecoveryTest, SnapshotAheadOfWalIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 43);
  const StreamOptions options = BaseOptions("LAF", 1);
  const std::string dir = FreshDir("ahead");
  const auto sopts = ServiceOptions(dir, options, 0, 8);
  const std::int64_t ingested = log.num_events() / 2;
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < ingested; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
    // Checkpoint at `ingested`, then chop whole records off the WAL tail.
    service.value()->Checkpoint().CheckOK();
  }
  auto wal_text = io::ReadFile(dir + "/wal.events");
  wal_text.status().CheckOK();
  std::string chopped = wal_text.value();
  chopped.pop_back();  // drop the trailing '\n' so each rfind removes a record
  for (int i = 0; i < 5; ++i) {
    chopped.resize(chopped.rfind('\n'));
  }
  chopped += '\n';
  io::WriteFile(dir + "/wal.events", chopped).CheckOK();

  auto service = RecoverableService::Open(log, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const RecoverableService::RecoveryInfo& r = service.value()->recovery();
  EXPECT_GE(r.snapshots_discarded, 1);
  EXPECT_EQ(service.value()->events_applied(), ingested - 5);
  EXPECT_EQ(r.snapshot_events, 0);  // full WAL replay
}

// A snapshot of format v1 (the full-history format an older build wrote)
// is discarded even with a valid CRC: recovery falls back to a full WAL
// replay and still reaches the golden outputs.
TEST(CrashRecoveryTest, LeftoverV1SnapshotIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 89);
  const StreamOptions options = BaseOptions("AAM", 1);
  const std::string golden = GoldenLog(log, options, "v1_golden");

  RecoverableService::RecoveryInfo info;
  const std::string recovered = DamagedRecoveryLog(
      log, options, FreshDir("v1"),
      [](const std::string& snap_dir) {
        int rewritten = 0;
        for (const auto& entry :
             std::filesystem::directory_iterator(snap_dir)) {
          const std::string path = entry.path().string();
          if (entry.path().filename().string().rfind("snap-", 0) != 0) {
            continue;
          }
          auto text = io::ReadFile(path);
          text.status().CheckOK();
          const std::string v2 = "# ltc-snapshot v2\n";
          ASSERT_EQ(text.value().rfind(v2, 0), 0u) << path;
          // Re-frame the same payload as v1, with a CRC that matches.
          std::string body = "# ltc-snapshot v1\n" +
                             text.value().substr(
                                 v2.size(), text.value().rfind("crc32 ") -
                                                v2.size());
          body += StrFormat("crc32 %08x\n", Crc32(body));
          io::WriteFile(path, body).CheckOK();
          ++rewritten;
        }
        EXPECT_EQ(rewritten, 2);
      },
      &info);
  EXPECT_EQ(info.snapshots_discarded, 2);
  EXPECT_EQ(info.snapshot_events, 0);
  EXPECT_GT(info.replayed, 0);
  EXPECT_EQ(info.replayed, info.wal_records);
  EXPECT_EQ(recovered, golden);
}

// Armed fault points turn WAL and ingest sites into surfaced IOErrors
// instead of silent corruption.
TEST(FaultInjectionTest, WalAndIngestFaultsSurface) {
  const io::EventLog log = MakeLog(10, 100, 47);
  const StreamOptions options = BaseOptions("LAF", 1);

  FaultPoints::Instance().Reset();
  FaultPoints::Instance().Arm("wal.append", 3, "fail");
  {
    auto service = RecoverableService::Open(
        log, ServiceOptions(FreshDir("fault_append"), options, 0, 1));
    service.status().CheckOK();
    Status status = Status::OK();
    std::int64_t applied_before_failure = 0;
    for (const io::Event& e : log.events) {
      status = service.value()->Ingest(e);
      if (!status.ok()) break;
      ++applied_before_failure;
    }
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.ToString().find("injected"), std::string::npos);
    EXPECT_EQ(applied_before_failure, 2);
    // WAL-first ordering: the failed event never reached the engine.
    EXPECT_EQ(service.value()->events_applied(), 2);
  }

  FaultPoints::Instance().Reset();
  FaultPoints::Instance().Arm("svc.ingest", 2, "fail");
  {
    auto service = RecoverableService::Open(
        log, ServiceOptions(FreshDir("fault_ingest"), options, 0, 1));
    service.status().CheckOK();
    EXPECT_TRUE(service.value()->Ingest(log.events[0]).ok());
    const Status status = service.value()->Ingest(log.events[1]);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("injected"), std::string::npos);
  }
  FaultPoints::Instance().Reset();
}

// The fsync fault point, exercised with fsync actually enabled.
TEST(FaultInjectionTest, FsyncFaultSurfacesWhenFsyncEnabled) {
  const io::EventLog log = MakeLog(10, 100, 53);
  const StreamOptions options = BaseOptions("LAF", 1);
  RecoverableService::Options sopts =
      ServiceOptions(FreshDir("fault_fsync_on"), options, 0, 1);
  sopts.wal.fsync = true;

  FaultPoints::Instance().Reset();
  auto service = RecoverableService::Open(log, sopts);
  service.status().CheckOK();
  // Arm after Open: Create durably fsyncs the WAL header, which would
  // otherwise consume the countdown before the first ingest.
  FaultPoints::Instance().Arm("wal.fsync", 1, "fail");
  const Status status = service.value()->Ingest(log.events[0]);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("injected"), std::string::npos);
  FaultPoints::Instance().Reset();
}

// RunDurableService end to end: fresh run, then a re-run over the same
// state dir (full recovery, zero re-ingest) must reproduce the log.
TEST(DurableServeTest, RerunOverRecoveredStateIsIdentical) {
  const io::EventLog log = MakeLog(20, 2000, 59);
  StreamOptions options = BaseOptions("MCF", 4);
  // No moves, so Finish validates — on the re-run, an arrangement whose
  // closed tasks were restored as retired placeholders.
  options.validate = true;
  DurableConfig dcfg;
  dcfg.state_dir = FreshDir("durable_rerun");
  dcfg.snapshot_every = 100;
  dcfg.wal.fsync = false;

  auto first = RunDurableService(log, options, dcfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().recovery.recovered);

  auto second = RunDurableService(log, options, dcfg);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().recovery.recovered);
  EXPECT_EQ(second.value().recovery.replayed, 0);
  EXPECT_EQ(second.value().assignment_log, first.value().assignment_log);
  EXPECT_TRUE(first.value().metrics.validated);
  EXPECT_TRUE(second.value().metrics.validated);
  EXPECT_GT(second.value().metrics.tasks_completed, 0);
}

/// `state` with field `field` of the first `key` record replaced by
/// `value` (unchanged when no such record exists).
std::string ReplaceField(const std::string& state, const std::string& key,
                         std::size_t field, const std::string& value) {
  const std::size_t line = state.find("\n" + key + " ");
  if (line == std::string::npos) return state;
  std::size_t begin = line + 1;
  for (std::size_t i = 0; i < field; ++i) begin = state.find(' ', begin) + 1;
  const std::size_t end = state.find_first_of(" \n", begin);
  return state.substr(0, begin) + value + state.substr(end);
}

// A damaged record count in an engine-state blob is a clean error, never
// an allocation sized by the damage: every count is checked against the
// lines left to read before anything is reserved.
TEST(SnapshotRoundTripTest, BadRecordCountsAreRejected) {
  const io::EventLog log = MakeLog(20, 400, 67);
  StreamOptions options = BaseOptions("LAF", 1);
  options.route_workers = true;
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
  }
  std::string state;
  engine.value()->SerializeTo(&state).CheckOK();
  ASSERT_TRUE(ShardedStreamEngine::Restore(log, options, state).ok());

  struct Damage {
    const char* key;
    std::size_t field;
  };
  // Engine-level counts, pipeline-level counts, a route's stop count, and
  // the dense id-space sizes (field 2 of "tasks", "ptasks", "pworkers"),
  // which are bounded by the event counters instead of the lines left.
  for (const Damage d :
       {Damage{"log", 1}, Damage{"moves", 1}, Damage{"tasks", 1},
        Damage{"ptasks", 1}, Damage{"pworkers", 1}, Damage{"pr", 6},
        Damage{"tasks", 2}, Damage{"ptasks", 2}, Damage{"pworkers", 2}}) {
    for (const char* count : {"-1", "100000000000"}) {
      const std::string damaged = ReplaceField(state, d.key, d.field, count);
      ASSERT_NE(damaged, state) << d.key;
      const auto restored = ShardedStreamEngine::Restore(log, options, damaged);
      ASSERT_FALSE(restored.ok()) << d.key << " " << count;
      EXPECT_TRUE(restored.status().IsInvalidArgument() ||
                  restored.status().IsOutOfRange())
          << d.key << " " << count << ": " << restored.status().ToString();
    }
  }
}

// Every serving mode runs the one engine: in-memory replay (RunService)
// and the durable path (RunDurableService: WAL, periodic snapshots) render
// byte-identical logs for a stream inside the configured world (durable
// runs never widen it; in-memory replay widens it only to cover the log).
TEST(DurableServeTest, InMemoryAndDurableLogsAreByteIdentical) {
  const io::EventLog log = MakeLog(60, 3000, 83, /*move_fraction=*/0.1);
  const geo::Rect world = BaseOptions("LAF", 1).world;
  for (const io::Event& e : log.events) {
    ASSERT_TRUE(e.location.x >= world.min_x && e.location.x <= world.max_x &&
                e.location.y >= world.min_y && e.location.y <= world.max_y);
  }
  struct Scheduler {
    const char* algorithm;
    bool route_workers;
  };
  for (const Scheduler sched :
       {Scheduler{"LAF", true}, Scheduler{"MCF", false}}) {
    for (const bool adaptive : {false, true}) {
      for (const int shards : {1, 4}) {
        StreamOptions options = BaseOptions(sched.algorithm, shards);
        options.route_workers = sched.route_workers;
        options.batch_deadline = adaptive ? 0.5 : 0.0;
        options.deadline_policy =
            adaptive ? DeadlinePolicy::kAdaptive : DeadlinePolicy::kFixed;
        const std::string label =
            StrFormat("%s adaptive=%d shards=%d", sched.algorithm,
                      adaptive ? 1 : 0, shards);

        auto in_memory = RunService(log, options);
        ASSERT_TRUE(in_memory.ok()) << label << in_memory.status().ToString();
        DurableConfig dcfg;
        dcfg.state_dir = FreshDir("mode_parity");
        dcfg.snapshot_every = 500;
        dcfg.wal.fsync = false;
        auto durable = RunDurableService(log, options, dcfg);
        ASSERT_TRUE(durable.ok()) << label << durable.status().ToString();

        EXPECT_GT(in_memory.value().metrics.assignments, 0) << label;
        EXPECT_EQ(in_memory.value().assignment_log,
                  durable.value().assignment_log)
            << label;
      }
    }
  }
}

/// Records of an engine-state blob other than the output histories it
/// keeps on purpose: the assignment log ("A"), the move log ("M") and the
/// latency samples ("l").
std::int64_t LiveRecords(const std::string& state) {
  std::int64_t n = 0;
  std::size_t begin = 0;
  while (begin < state.size()) {
    const std::size_t end = state.find('\n', begin);
    const std::string_view line(state.data() + begin,
                                (end == std::string::npos ? state.size()
                                                          : end) -
                                    begin);
    if (line.rfind("A ", 0) != 0 && line.rfind("M ", 0) != 0 &&
        line.rfind("l ", 0) != 0) {
      ++n;
    }
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return n;
}

// A snapshot holds live state, not history: on a stationary stream the
// records beyond the A/M/l output logs stay flat in stream length. The
// engine state after 4N events may hold at most 1.5x the records it held
// after N events. Stationary means constant arrival rates over a stream
// long against every live-state lifetime: at 2 tasks and 80 workers per
// time unit the first N events span ~200 time units, several times the
// longest route a worker drives at unit speed.
TEST(SnapshotSizeTest, LiveStateIsFlatOnAStationaryStream) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 1600;
  cfg.num_workers = 64000;
  cfg.task_rate = 2.0;
  cfg.worker_rate = 80.0;
  cfg.seed = 71;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  const std::int64_t n = log.num_events() / 4;

  StreamOptions laf = BaseOptions("LAF", 1);
  laf.batch_deadline = 0.0;
  StreamOptions mcf = BaseOptions("MCF", 1);
  mcf.deadline_policy = DeadlinePolicy::kAdaptive;
  mcf.route_workers = true;
  for (const StreamOptions& options : {laf, mcf}) {
    auto engine = ShardedStreamEngine::Create(log, options);
    engine.status().CheckOK();
    std::int64_t at_n = 0;
    std::string state;
    for (std::int64_t i = 0; i < log.num_events(); ++i) {
      engine.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
      if (i + 1 == n) {
        engine.value()->SerializeTo(&state).CheckOK();
        at_n = LiveRecords(state);
      }
    }
    state.clear();
    engine.value()->SerializeTo(&state).CheckOK();
    const std::int64_t at_4n = LiveRecords(state);
    EXPECT_GT(at_n, 0) << options.algorithm;
    EXPECT_LE(static_cast<double>(at_4n), 1.5 * static_cast<double>(at_n))
        << options.algorithm << ": " << at_n << " live records after " << n
        << " events, " << at_4n << " after " << 4 * n;
  }
}

// --- Golden snapshot bytes: any drift in the number codec (digits,
// exponent form, integer widths) fails here before it can reach a state
// directory. ---

io::Event GoldenEvent(io::Event::Kind kind, double time, double x, double y,
                      double accuracy = 0.0, model::TaskId task = -1) {
  io::Event e;
  e.kind = kind;
  e.time = time;
  e.location = geo::Point{x, y};
  e.accuracy = accuracy;
  e.task = task;
  return e;
}

/// A fixed 10-event stream: three tasks (one relocated), six workers.
io::EventLog GoldenStream() {
  io::EventLog log = MakeLog(1, 1, 1);
  using Kind = io::Event::Kind;
  log.events = {GoldenEvent(Kind::kTaskArrival, 0.0, 100.25, 100.5),
                GoldenEvent(Kind::kTaskArrival, 0.1, 110.0, 104.75),
                GoldenEvent(Kind::kWorkerArrival, 0.15, 101.0, 99.0, 0.9),
                GoldenEvent(Kind::kWorkerArrival, 0.2, 108.5, 103.0, 0.83),
                GoldenEvent(Kind::kTaskArrival, 0.3, 640.0, 480.0),
                GoldenEvent(Kind::kTaskMove, 0.35, 640.0 + 1.0 / 3.0, 470.0,
                            0.0, 2),
                GoldenEvent(Kind::kWorkerArrival, 0.45, 105.0, 102.0, 0.71),
                GoldenEvent(Kind::kWorkerArrival, 0.6, 635.0, 472.5, 0.95),
                GoldenEvent(Kind::kWorkerArrival, 0.7, 111.0, 105.0, 0.88),
                GoldenEvent(Kind::kWorkerArrival, 0.85, 642.0, 469.0, 0.77)};
  return log;
}

std::string GoldenStreamState(const StreamOptions& options,
                              double epsilon = 0.1) {
  io::EventLog log = GoldenStream();
  log.epsilon = epsilon;
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
  }
  std::string state;
  engine.value()->SerializeTo(&state).CheckOK();
  return state;
}

constexpr char kGoldenLafState[] = R"(shards 1
clock 0.84999999999999998
counters 10 3 6 1 0 0
tasks 3 3
r 0 0 0
r 1 0 1
r 2 0 2
displaced 0
claims 0
log 10
A 0.14999999999999999 1 0
A 0.14999999999999999 1 1
A 0.20000000000000001 2 1
A 0.20000000000000001 2 0
A 0.45000000000000001 3 0
A 0.45000000000000001 3 1
A 0.59999999999999998 4 2
A 0.69999999999999996 5 1
A 0.69999999999999996 5 0
A 0.84999999999999998 6 2
pipeline 0
ptasks 3 3
pt 0 0 0 100.25 100.5
pt 1 1 0.10000000000000001 110 104.75
pt 2 2 0.29999999999999999 640.33333333333337 470
pworkers 6 6
pw 1 1 101 99 0.90000000000000002
pw 2 2 108.5 103 0.82999999999999996
pw 3 3 105 102 0.70999999999999996
pw 4 4 635 472.5 0.94999999999999996
pw 5 5 111 105 0.88
pw 6 6 642 469 0.77000000000000002
pbatch 0.84999999999999998 0
pcounters 6 1 0 0 0
plat_a 10
l 0.14999999999999999
l 0.049999999999999989
l 0.10000000000000001
l 0.20000000000000001
l 0.45000000000000001
l 0.34999999999999998
l 0.29999999999999999
l 0.59999999999999998
l 0.69999999999999996
l 0.55000000000000004
plat_c 0
sched 11
arr 10 6 4.7607999581528295
a 1 0 0.63999999999855806
a 1 1 0.63999998828276561
a 2 1 0.43559999999794469
a 2 0 0.43559999886323669
a 3 0 0.1763999999837427
a 3 1 0.1763999999664283
a 4 2 0.80999999988431637
a 5 1 0.57759999999929834
a 5 0 0.5775999711776254
a 6 2 0.29159999999891323
endpipe
)";

constexpr char kGoldenMcfAdaptiveRoutesState[] = R"(shards 1
clock 0.84999999999999998
counters 10 3 6 1 0 0
tasks 3 3
r 0 0 0
r 1 0 1
r 2 0 2
displaced 0
claims 0
log 10
A 0.20000000000000001 1 0
A 0.20000000000000001 1 1
A 0.20000000000000001 2 0
A 0.20000000000000001 2 1
A 0.59999999999999998 3 0
A 0.59999999999999998 3 1
A 0.59999999999999998 4 2
A 0.84999999999999998 5 0
A 0.84999999999999998 5 1
A 0.84999999999999998 6 2
moves 0
pipeline 0
ptasks 3 3
pt 0 0 0 100.25 100.5
pt 1 1 0.10000000000000001 110 104.75
pt 2 2 0.29999999999999999 640.33333333333337 470
pworkers 6 6
pw 1 1 101 99 0.90000000000000002
pw 2 2 108.5 103 0.82999999999999996
pw 3 3 105 102 0.70999999999999996
pw 4 4 635 472.5 0.94999999999999996
pw 5 5 111 105 0.88
pw 6 6 642 469 0.77000000000000002
pbatch 0.84999999999999998 0
pcounters 6 1 0 6 60.371872634816455
plat_a 10
l 0.20000000000000001
l 0.10000000000000001
l 0.20000000000000001
l 0.10000000000000001
l 0.59999999999999998
l 0.5
l 0.29999999999999999
l 0.84999999999999998
l 0.75
l 0.55000000000000004
plat_c 0
sched 12
arr 10 6 4.7607999581528304
a 1 0 0.63999999999855806
a 1 1 0.63999998828276561
a 2 0 0.43559999886323669
a 2 1 0.43559999999794469
a 3 0 0.1763999999837427
a 3 1 0.1763999999664283
a 4 2 0.80999999988431637
a 5 0 0.5775999711776254
a 5 1 0.57759999999929834
a 6 2 0.29159999999891323
m 0 3
proutes 6
pr 1 101 99 0.20000000000000001 0 2
ps 0 100.25 100.5
ps 1 110 104.75
pr 2 108.5 103 0.20000000000000001 0 2
ps 1 110 104.75
ps 0 100.25 100.5
pr 3 105 102 0.59999999999999998 0 2
ps 0 100.25 100.5
ps 1 110 104.75
pr 4 635 472.5 0.59999999999999998 0 1
ps 2 640.33333333333337 470
pr 5 111 105 0.84999999999999998 0 2
ps 1 110 104.75
ps 0 100.25 100.5
pr 6 642 469 0.84999999999999998 0 1
ps 2 640.33333333333337 470
pfcst 5
fcst 1225 8 9 3
fc 108 0.48027579227586642 0.23049529474742883 0.69999999999999996
fc 546 0.125 0 0.84999999999999998
fc 581 0.125 0.12039930221510273 0.59999999999999998
endfcst
pdl 0 6 0
endpipe
)";

constexpr char kGoldenRandomOpenBatchState[] = R"(shards 2
clock 0.84999999999999998
counters 10 3 6 1 0 0
tasks 3 3
r 0 0 0
r 1 0 1
r 2 1 0
displaced 0
claims 0
log 0
pipeline 0
ptasks 2 2
pt 0 0 0 100.25 100.5
pt 1 1 0.10000000000000001 110 104.75
pworkers 4 4
pw 1 1 101 99 0.90000000000000002
pw 2 2 108.5 103 0.82999999999999996
pw 3 3 105 102 0.70999999999999996
pw 4 5 111 105 0.88
pbatch 0.14999999999999999 4 1 2 3 4
pcounters 0 0 0 0 0
plat_a 0
plat_c 0
sched 2
arr 0 0 0
x rng 7191089600892374487 309689372594955804 16616101746815609346 10753165928301472203 0 0
endpipe
pipeline 1
ptasks 1 1
pt 0 2 0.29999999999999999 640.33333333333337 470
pworkers 2 2
pw 1 4 635 472.5 0.94999999999999996
pw 2 6 642 469 0.77000000000000002
pbatch 0.59999999999999998 2 1 2
pcounters 0 0 0 0 0
plat_a 0
plat_c 0
sched 2
arr 0 0 0
x rng 17039259473404265729 18363971414914884509 8043341295829897994 2742686685723344479 0 0
endpipe
)";

constexpr char kGoldenAamClosedTasksState[] = R"(shards 1
clock 0.84999999999999998
counters 10 3 6 1 0 0
tasks 1 3
r 2 0 2
displaced 0
claims 0
log 10
A 0.14999999999999999 1 0
A 0.14999999999999999 1 1
A 0.20000000000000001 2 1
A 0.20000000000000001 2 0
A 0.45000000000000001 3 1
A 0.45000000000000001 3 0
A 0.59999999999999998 4 2
A 0.69999999999999996 5 1
A 0.69999999999999996 5 0
A 0.84999999999999998 6 2
pipeline 0
ptasks 1 3
pt 2 2 0.29999999999999999 640.33333333333337 470
pworkers 2 6
pw 4 4 635 472.5 0.94999999999999996
pw 6 6 642 469 0.77000000000000002
pbatch 0.84999999999999998 0
pcounters 6 1 2 0 0
plat_a 10
l 0.14999999999999999
l 0.049999999999999989
l 0.10000000000000001
l 0.20000000000000001
l 0.34999999999999998
l 0.45000000000000001
l 0.29999999999999999
l 0.59999999999999998
l 0.69999999999999996
l 0.55000000000000004
plat_c 2
l 0.59999999999999998
l 0.69999999999999996
sched 4
arr 2 6 4.7607999581528295
a 4 2 0.80999999988431637
a 6 2 0.29159999999891323
x aam 0.28469436123666081
endpipe
)";

TEST(SnapshotGoldenTest, SerializeToBytesArePinned) {
  StreamOptions laf = BaseOptions("LAF", 1);
  laf.batch_deadline = 0.0;
  EXPECT_EQ(GoldenStreamState(laf), kGoldenLafState);

  StreamOptions mcf = BaseOptions("MCF", 1);
  mcf.deadline_policy = DeadlinePolicy::kAdaptive;
  mcf.route_workers = true;
  EXPECT_EQ(GoldenStreamState(mcf), kGoldenMcfAdaptiveRoutesState);

  // Open batches (worker lists on "pbatch") and Random's u64 rng words.
  StreamOptions random = BaseOptions("Random", 2);
  random.batch_deadline = 10.0;
  EXPECT_EQ(GoldenStreamState(random), kGoldenRandomOpenBatchState);

  // epsilon 0.5 (delta = 2 ln 2) closes tasks 0 and 1: their routes, "pt"
  // and "a" records and the workers only they referenced are gone, leaving
  // the id-space sizes, AAM's running sum and the A/l histories.
  StreamOptions aam = BaseOptions("AAM", 1);
  aam.batch_deadline = 0.0;
  EXPECT_EQ(GoldenStreamState(aam, 0.5), kGoldenAamClosedTasksState);
}

// Restoring into a different topology is refused loudly instead of
// silently rerouting the stream.
TEST(DurableServeTest, TopologyMismatchIsRejected) {
  const io::EventLog log = MakeLog(10, 100, 61);
  const StreamOptions options = BaseOptions("LAF", 2);
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
  }
  std::string state;
  engine.value()->SerializeTo(&state).CheckOK();

  StreamOptions other = options;
  other.shards = 3;
  const auto restored = ShardedStreamEngine::Restore(log, other, state);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("topology"), std::string::npos);
}

}  // namespace
}  // namespace svc
}  // namespace ltc
