// Tests of the sharded streaming service (DESIGN.md §9): the geo::ShardMap
// stripe partition, the boundary-handoff/claim protocol, the shards=K
// determinism contract (byte-identical serve logs for --threads 1 vs 4),
// and the completion-rate property that sharding must not degrade the
// served task set beyond a small boundary epsilon.

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "gen/stream.h"
#include "geo/shard_map.h"
#include "io/event_log.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/stream_engine.h"
#include "gtest/gtest.h"

namespace ltc {
namespace svc {
namespace {

gen::StreamConfig SmallStream(std::uint64_t seed) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 80;
  cfg.num_workers = 4000;
  cfg.task_rate = 30.0;
  cfg.worker_rate = 300.0;
  cfg.seed = seed;
  return cfg;
}

TEST(ShardMapTest, StripesPartitionTheWorldAlongCellColumns) {
  auto built = geo::ShardMap::Build(geo::Rect{0.0, 0.0, 100.0, 50.0},
                                    /*cell_size=*/10.0, /*shards=*/4);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const geo::ShardMap& map = built.value();
  EXPECT_EQ(map.num_shards(), 4);

  // Stripe edges are multiples of the cell size and tile [0, 110) (11
  // columns, same formula as GridIndex).
  EXPECT_DOUBLE_EQ(map.StripeMinX(0), 0.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(map.StripeMinX(s), map.StripeMaxX(s));
    const double width = map.StripeMaxX(s) - map.StripeMinX(s);
    EXPECT_DOUBLE_EQ(std::fmod(width, 10.0), 0.0);
    if (s > 0) {
      EXPECT_DOUBLE_EQ(map.StripeMinX(s), map.StripeMaxX(s - 1));
    }
  }
  EXPECT_DOUBLE_EQ(map.StripeMaxX(3), 110.0);

  // Ownership is consistent with the stripe intervals, and out-of-bounds
  // coordinates clamp into the boundary stripes.
  for (double x = -20.0; x <= 130.0; x += 1.0) {
    const int s = map.ShardOf({x, 25.0});
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    if (x >= 0.0 && x < 110.0) {
      EXPECT_GE(x, map.StripeMinX(s)) << x;
      EXPECT_LT(x, map.StripeMaxX(s)) << x;
    }
  }
  EXPECT_EQ(map.ShardOf({-100.0, 0.0}), 0);
  EXPECT_EQ(map.ShardOf({1e6, 0.0}), 3);

  // The cross-shard radius query covers every stripe the disk touches.
  int lo = 0;
  int hi = 0;
  map.ShardRange({5.0, 25.0}, 2.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 0);
  const double edge = map.StripeMaxX(0);
  map.ShardRange({edge - 1.0, 25.0}, 5.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 1);
  map.ShardRange({55.0, 25.0}, 1000.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
  // Negative radius collapses to the owning stripe.
  map.ShardRange({55.0, 25.0}, -3.0, &lo, &hi);
  EXPECT_EQ(lo, hi);
}

TEST(ShardMapTest, MoreShardsThanColumnsLeavesTrailingShardsEmpty) {
  auto built = geo::ShardMap::Build(geo::Rect{0.0, 0.0, 10.0, 10.0},
                                    /*cell_size=*/10.0, /*shards=*/4);
  ASSERT_TRUE(built.ok());
  const geo::ShardMap& map = built.value();
  // 2 columns for 4 shards: exactly two shards own a column (the rest are
  // empty stripes that never receive work), and every location — in or out
  // of bounds — maps to an owning shard.
  std::set<int> owners;
  for (double x = -5.0; x <= 15.0; x += 0.5) {
    const int s = map.ShardOf({x, 5.0});
    EXPECT_GT(map.StripeMaxX(s), map.StripeMinX(s)) << "shard " << s;
    owners.insert(s);
  }
  EXPECT_EQ(owners.size(), 2u);
}

// The tentpole acceptance contract: a K-shard serve log is byte-identical
// across thread counts, for every online algorithm, including streams with
// move events.
TEST(ShardedServeDeterminismTest, LogIdenticalAcrossThreadCounts) {
  for (const char* algo : {"LAF", "AAM", "Random"}) {
    gen::StreamConfig cfg = SmallStream(77);
    cfg.move_fraction = 0.1;
    auto log = gen::GenerateStreamEvents(cfg);
    ASSERT_TRUE(log.ok());

    StreamOptions options;
    options.algorithm = algo;
    options.batch_deadline = 0.4;
    options.seed = 123;
    options.shards = 4;

    options.threads = 1;
    auto one = RunService(log.value(), options);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    options.threads = 4;
    auto four = RunService(log.value(), options);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    EXPECT_EQ(one.value().assignment_log, four.value().assignment_log)
        << "algorithm " << algo;
    EXPECT_GT(one.value().metrics.assignments, 0) << "algorithm " << algo;
    EXPECT_EQ(one.value().metrics.shards, 4);
    // The Poisson world at this scale has real stripe-edge traffic.
    EXPECT_GT(one.value().metrics.boundary_workers, 0) << "algorithm " << algo;
  }
}

// Boundary-handoff claim invariant: no worker is ever committed by two
// shards, and every assignment respects per-worker capacity globally.
TEST(ShardedEngineTest, ClaimTableKeepsWorkersSingleShard) {
  gen::StreamConfig cfg = SmallStream(9);
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "AAM";
  options.batch_deadline = 0.5;
  options.shards = 4;
  std::vector<StreamAssignment> assignments;
  auto replay = ReplayEventLog(log.value(), options, &assignments);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_GT(assignments.size(), 0u);
  EXPECT_TRUE(replay.value().stream.validated);

  std::map<model::WorkerIndex, std::set<model::TaskId>> per_worker;
  for (const StreamAssignment& a : assignments) {
    // No duplicate (worker, task) commitments across shards.
    EXPECT_TRUE(per_worker[a.worker].insert(a.task).second)
        << "worker " << a.worker << " task " << a.task;
  }
  for (const auto& [worker, tasks] : per_worker) {
    EXPECT_LE(static_cast<std::int32_t>(tasks.size()),
              log.value().capacity)
        << "worker " << worker;
  }
}

// The shard-boundary quality property: for random Poisson instances, a
// K-shard run completes (nearly) the same share of the task set as the
// unsharded engine. Handoff can only lose a worker to an unlucky claim, so
// a small epsilon bounds the gap.
TEST(ShardedEngineTest, CompletionRateWithinEpsilonOfUnsharded) {
  constexpr double kEpsilon = 0.05;
  for (const std::uint64_t seed : {3u, 11u, 27u, 58u, 101u}) {
    auto log = gen::GenerateStreamEvents(SmallStream(seed));
    ASSERT_TRUE(log.ok());

    StreamOptions options;
    options.algorithm = "LAF";
    options.batch_deadline = 0.5;

    auto unsharded = ReplayEventLog(log.value(), options);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    options.shards = 4;
    auto sharded = ReplayEventLog(log.value(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    const auto rate = [](const ReplayResult& r) {
      return static_cast<double>(r.stream.tasks_completed) /
             static_cast<double>(r.stream.task_events);
    };
    EXPECT_NEAR(rate(sharded.value()), rate(unsharded.value()), kEpsilon)
        << "seed " << seed;
    EXPECT_GT(sharded.value().stream.tasks_completed, 0) << "seed " << seed;
  }
}

// Tasks that relocate across a stripe edge stay reachable: the router
// widens worker route sets to cover displaced tasks, so completion does
// not crater under movement.
TEST(ShardedEngineTest, MoveEventsAcrossStripesStayServed) {
  gen::StreamConfig cfg = SmallStream(33);
  cfg.move_fraction = 0.4;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = 0.25;
  auto unsharded = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(unsharded.ok());
  options.shards = 4;
  auto sharded = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_GT(sharded.value().stream.move_events, 0);
  EXPECT_FALSE(sharded.value().stream.validated);  // moves skip validation
  const double unsharded_rate =
      static_cast<double>(unsharded.value().stream.tasks_completed) /
      static_cast<double>(unsharded.value().stream.task_events);
  const double sharded_rate =
      static_cast<double>(sharded.value().stream.tasks_completed) /
      static_cast<double>(sharded.value().stream.task_events);
  EXPECT_NEAR(sharded_rate, unsharded_rate, 0.05);
}

// A directed stripe-edge scenario: the only worker able to finish a task
// sits in the neighbouring stripe. Without the cross-shard handoff the
// task would starve; with it, the worker is offered to both shards and the
// claim resolves to the one holding the task.
TEST(ShardedEngineTest, HandoffServesTasksAcrossTheStripeEdge) {
  io::EventLog log;
  log.epsilon = 0.4;  // delta ~ 1.83: a couple of good workers complete it
  log.capacity = 6;
  log.acc_min = 0.66;
  log.accuracy = std::make_shared<model::SigmoidDistanceAccuracy>(30.0);

  StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = 0.0;
  options.shards = 2;
  options.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};

  auto engine = ShardedStreamEngine::Create(log, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const double edge = engine.value()->shard_map().StripeMaxX(0);
  ASSERT_GT(edge, 0.0);
  ASSERT_LT(edge, 1000.0);

  // Task just left of the edge (shard 0); workers just right of it
  // (shard 1's stripe), well within eligible range of the task.
  io::Event task;
  task.kind = io::Event::Kind::kTaskArrival;
  task.time = 0.0;
  task.location = {edge - 1.0, 500.0};
  ASSERT_TRUE(engine.value()->OnEvent(task).ok());
  for (int i = 0; i < 4; ++i) {
    io::Event worker;
    worker.kind = io::Event::Kind::kWorkerArrival;
    worker.time = 1.0 + i;
    worker.location = {edge + 1.0, 500.0};
    worker.accuracy = 0.95;
    ASSERT_TRUE(engine.value()->OnEvent(worker).ok());
  }
  auto metrics = engine.value()->Finish();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics.value().tasks_completed, 1);
  EXPECT_GT(metrics.value().boundary_workers, 0);
  EXPECT_GT(metrics.value().assignments, 0);
}

}  // namespace
}  // namespace svc
}  // namespace ltc
