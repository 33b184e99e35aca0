// google-benchmark micro suite for the performance-critical substrates:
// the min-cost-flow solver, the grid index, eligibility queries, a
// single online-arrival step of LAF/AAM, and the text codec every WAL,
// wire payload and snapshot goes through (event record format/parse,
// one full engine SerializeTo).
//
// Run:  ./build/bench/bench_micro [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/aam.h"
#include "algo/laf.h"
#include "common/random.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "flow/min_cost_flow.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "geo/grid_index.h"
#include "io/event_log.h"
#include "model/eligibility.h"
#include "svc/sharded_engine.h"

namespace {

using ltc::Rng;

/// Builds an LTC-shaped bipartite flow network: st -> W workers -> T tasks
/// -> ed, with ~degree random eligible arcs per worker.
ltc::flow::FlowNetwork BuildBipartite(int workers, int tasks, int degree,
                                      std::uint64_t seed) {
  Rng rng(seed);
  ltc::flow::FlowNetworkBuilder b(
      static_cast<ltc::flow::NodeId>(2 + workers + tasks));
  for (int w = 0; w < workers; ++w) {
    b.AddArc(0, static_cast<ltc::flow::NodeId>(2 + w), 6, 0)
        .status()
        .CheckOK();
    for (int d = 0; d < degree; ++d) {
      const auto t = static_cast<int>(rng.UniformInt(0, tasks - 1));
      b.AddArc(static_cast<ltc::flow::NodeId>(2 + w),
               static_cast<ltc::flow::NodeId>(2 + workers + t), 1,
               -rng.UniformInt(100000, 1000000))
          .status()
          .CheckOK();
    }
  }
  for (int t = 0; t < tasks; ++t) {
    b.AddArc(static_cast<ltc::flow::NodeId>(2 + workers + t), 1, 5, 0)
        .status()
        .CheckOK();
  }
  ltc::flow::FlowNetwork net;
  b.Build(&net);
  return net;
}

void BM_SspMinCostMaxFlow(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int tasks = workers / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto net = BuildBipartite(workers, tasks, 8, 42);
    state.ResumeTiming();
    auto result = ltc::flow::SspMinCostMaxFlow(&net, 0, 1);
    result.status().CheckOK();
    benchmark::DoNotOptimize(result->cost);
  }
}
BENCHMARK(BM_SspMinCostMaxFlow)->Arg(64)->Arg(256)->Arg(1024);

void BM_DinicMaxFlow(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto net = BuildBipartite(workers, workers / 2, 8, 42);
    state.ResumeTiming();
    auto result = ltc::flow::DinicMaxFlow(&net, 0, 1);
    result.status().CheckOK();
    benchmark::DoNotOptimize(result.value());
  }
}
BENCHMARK(BM_DinicMaxFlow)->Arg(256)->Arg(1024);

std::vector<ltc::geo::Point> RandomPoints(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ltc::geo::Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  return points;
}

void BM_GridIndexBuild(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto index = ltc::geo::GridIndex::Build(points, 30.0);
    index.status().CheckOK();
    benchmark::DoNotOptimize(index->size());
  }
}
BENCHMARK(BM_GridIndexBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GridIndexQueryRadius(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<int>(state.range(0)), 7);
  auto index = ltc::geo::GridIndex::Build(points, 30.0);
  index.status().CheckOK();
  Rng rng(13);
  std::vector<std::int64_t> out;
  for (auto _ : state) {
    index->QueryRadius({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 30.0,
                       &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQueryRadius)->Arg(10000)->Arg(100000);

struct OnlineFixture {
  ltc::model::ProblemInstance instance;
  std::unique_ptr<ltc::model::EligibilityIndex> index;

  static OnlineFixture Make(std::int64_t tasks, std::int64_t workers) {
    ltc::gen::SyntheticConfig cfg;
    cfg.num_tasks = tasks;
    cfg.num_workers = workers;
    cfg.grid_side = 316.0;
    cfg.seed = 21;
    auto instance = ltc::gen::GenerateSynthetic(cfg);
    instance.status().CheckOK();
    OnlineFixture f{std::move(instance).value(), nullptr};
    auto index = ltc::model::EligibilityIndex::Build(&f.instance);
    index.status().CheckOK();
    f.index = std::make_unique<ltc::model::EligibilityIndex>(
        std::move(index).value());
    return f;
  }
};

template <typename Scheduler>
void RunOnlinePass(benchmark::State& state, std::int64_t tasks) {
  OnlineFixture f = OnlineFixture::Make(tasks, 4000);
  std::vector<ltc::model::TaskId> assigned;
  for (auto _ : state) {
    Scheduler scheduler;
    scheduler.Init(f.instance, *f.index).CheckOK();
    std::int64_t arrivals = 0;
    for (const auto& w : f.instance.workers) {
      if (scheduler.Done()) break;
      scheduler.OnArrival(w, &assigned).CheckOK();
      ++arrivals;
    }
    benchmark::DoNotOptimize(arrivals);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}

void BM_LafFullStream(benchmark::State& state) {
  RunOnlinePass<ltc::algo::Laf>(state, state.range(0));
}
BENCHMARK(BM_LafFullStream)->Arg(100)->Arg(400);

void BM_AamFullStream(benchmark::State& state) {
  RunOnlinePass<ltc::algo::Aam>(state, state.range(0));
}
BENCHMARK(BM_AamFullStream)->Arg(100)->Arg(400);

void BM_EligibilityQuery(benchmark::State& state) {
  OnlineFixture f = OnlineFixture::Make(state.range(0), 4000);
  std::vector<ltc::model::TaskId> out;
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto& w = f.instance.workers[cursor];
    f.index->EligibleTasks(w, &out);
    benchmark::DoNotOptimize(out.size());
    cursor = (cursor + 1) % f.instance.workers.size();
  }
}
BENCHMARK(BM_EligibilityQuery)->Arg(100)->Arg(1000);

/// The synthetic ltc_serve stream (`--synthetic --tasks=N/40 --workers=N`
/// with the default seed): 82k events at workers=80000.
ltc::io::EventLog SyntheticStream(std::int64_t workers) {
  ltc::gen::StreamConfig cfg;
  cfg.num_tasks = workers / 40;
  cfg.num_workers = workers;
  cfg.seed = 42;
  auto log = ltc::gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  return std::move(log).value();
}

// One WAL append / wire encode: a %.17g text record per event.
void BM_FormatEventRecord(benchmark::State& state) {
  const ltc::io::EventLog log = SyntheticStream(4000);
  std::string out;
  std::size_t cursor = 0;
  for (auto _ : state) {
    if (cursor == 0) out.clear();
    ltc::io::AppendEventRecord(&out, log.events[cursor]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    cursor = (cursor + 1) % log.events.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FormatEventRecord);

// One wire decode / WAL replay step: the inverse of the row above.
void BM_ParseEventRecord(benchmark::State& state) {
  const ltc::io::EventLog log = SyntheticStream(4000);
  std::vector<std::string> lines(log.events.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ltc::io::AppendEventRecord(&lines[i], log.events[i]);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    auto event = ltc::io::ParseEventRecord(lines[cursor]);
    benchmark::DoNotOptimize(event);
    cursor = (cursor + 1) % lines.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseEventRecord);

// One full snapshot body: LAF at deadline 0 after the whole stream.
void BM_EngineSerialize(benchmark::State& state) {
  const ltc::io::EventLog log = SyntheticStream(state.range(0));
  ltc::svc::StreamOptions options;
  options.algorithm = "LAF";
  options.validate = false;
  auto engine = ltc::svc::ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (const ltc::io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
  }
  std::string state_bytes;
  for (auto _ : state) {
    state_bytes.clear();
    engine.value()->SerializeTo(&state_bytes).CheckOK();
    benchmark::DoNotOptimize(state_bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(state_bytes.size()));
  state.counters["events"] = static_cast<double>(log.num_events());
}
BENCHMARK(BM_EngineSerialize)->Arg(80000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
