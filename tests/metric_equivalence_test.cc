// The PR-8 compatibility contract: the geo::Metric indirection is free.
// An accuracy model rebound onto an explicit EuclideanMetric must behave
// bit-for-bit like the default (implicit-Euclidean) model everywhere —
// offline eligibility queries, and the full streaming service's rendered
// "ltc-serve v1" assignment logs across every scheduler and shard count.
// Since the default path's bytes are pinned by the PR-6/PR-7 determinism
// tests, equality here extends that pin across the Metric API boundary.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/stream.h"
#include "gen/synthetic.h"
#include "geo/metric.h"
#include "io/event_log.h"
#include "model/accuracy.h"
#include "model/eligibility.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace svc {
namespace {

/// The instance with its accuracy model rebound onto the explicit
/// Euclidean metric singleton (same parameters, new metric plumbing).
model::ProblemInstance Rebind(const model::ProblemInstance& instance) {
  model::ProblemInstance copy = instance;
  auto rebound = model::RebindMetric(*instance.accuracy,
                                     geo::EuclideanMetricSingleton());
  EXPECT_TRUE(rebound.ok()) << rebound.status().ToString();
  copy.accuracy = std::move(rebound).value();
  return copy;
}

TEST(MetricEquivalenceTest, OfflineEligibilityIsIdentical) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 300;
  cfg.num_workers = 2000;
  cfg.grid_side = 300.0;
  auto generated = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const model::ProblemInstance& base = generated.value();
  const model::ProblemInstance rebound = Rebind(base);

  ASSERT_TRUE(base.accuracy->DistanceMetric()->euclidean());
  ASSERT_TRUE(rebound.accuracy->DistanceMetric()->euclidean());

  auto base_index = model::EligibilityIndex::Build(&base);
  auto rebound_index = model::EligibilityIndex::Build(&rebound);
  ASSERT_TRUE(base_index.ok());
  ASSERT_TRUE(rebound_index.ok());

  std::vector<model::TaskId> a;
  std::vector<model::TaskId> b;
  for (const model::Worker& w : base.workers) {
    base_index.value().EligibleTasks(w, &a);
    rebound_index.value().EligibleTasks(w, &b);
    ASSERT_EQ(a, b) << "worker " << w.index;
    EXPECT_EQ(base_index.value().CountEligible(w),
              static_cast<std::int64_t>(a.size()));
  }
}

TEST(MetricEquivalenceTest, StreamLogsAreByteIdentical) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 120;
  cfg.num_workers = 4000;
  cfg.seed = 21;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const io::EventLog& base_log = generated.value();

  io::EventLog rebound_log = base_log;
  auto rebound = model::RebindMetric(*base_log.accuracy,
                                     geo::EuclideanMetricSingleton());
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  rebound_log.accuracy = std::move(rebound).value();

  for (const char* algorithm : {"Random", "LAF", "AAM", "MCF"}) {
    for (const int shards : {1, 3}) {
      StreamOptions options;
      options.algorithm = algorithm;
      options.seed = cfg.seed;
      options.shards = shards;
      options.threads = 2;

      std::vector<StreamAssignment> base_assignments;
      auto base_replay = ReplayEventLog(base_log, options, &base_assignments);
      ASSERT_TRUE(base_replay.ok()) << base_replay.status().ToString();

      std::vector<StreamAssignment> rebound_assignments;
      auto rebound_replay =
          ReplayEventLog(rebound_log, options, &rebound_assignments);
      ASSERT_TRUE(rebound_replay.ok()) << rebound_replay.status().ToString();

      const std::string base_text = RenderAssignmentLog(
          options, base_assignments, base_replay.value().stream);
      const std::string rebound_text = RenderAssignmentLog(
          options, rebound_assignments, rebound_replay.value().stream);
      ASSERT_FALSE(base_assignments.empty())
          << algorithm << " shards=" << shards;
      EXPECT_EQ(base_text, rebound_text)
          << algorithm << " shards=" << shards;
    }
  }
}

TEST(MetricEquivalenceTest, RouteModeStaysDeterministicAcrossThreads) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 100;
  cfg.num_workers = 3000;
  cfg.task_rate = 2.0;  // long stream: travel times fit inside it
  cfg.worker_rate = 60.0;
  cfg.seed = 33;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();

  StreamOptions options;
  options.algorithm = "LAF";
  options.seed = cfg.seed;
  options.shards = 2;
  options.route_workers = true;
  options.batch_deadline = 1.0;

  std::string first;
  for (const int threads : {1, 4}) {
    options.threads = threads;
    std::vector<StreamAssignment> assignments;
    std::vector<WorkerMove> moves;
    auto replay =
        ReplayEventLog(generated.value(), options, &assignments, &moves);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_GT(replay.value().stream.worker_moves, 0);
    const std::string text = RenderAssignmentLog(
        options, assignments, replay.value().stream, &moves);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

}  // namespace
}  // namespace svc
}  // namespace ltc
