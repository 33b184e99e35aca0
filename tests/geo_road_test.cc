// Road-network tests: Dijkstra cross-checked against brute-force
// Bellman-Ford on random graphs, the resumable workspace cross-checked
// bit for bit against fresh full solves, snap determinism, ALT lower-bound
// admissibility, the "ltc-road v1" round-trip, the Metric-contract
// validation in Build, and the gen/road street-grid synthesizer.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/road.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "geo/road_graph.h"

namespace ltc {
namespace geo {
namespace {

/// Brute-force single-source shortest paths: relax every edge |V|-1 times.
std::vector<double> BellmanFord(std::int32_t num_nodes,
                                const std::vector<RoadGraph::Edge>& edges,
                                std::int32_t source) {
  std::vector<double> dist(static_cast<std::size_t>(num_nodes),
                           RoadGraph::kUnreachable);
  dist[static_cast<std::size_t>(source)] = 0.0;
  for (std::int32_t round = 0; round + 1 < num_nodes; ++round) {
    bool changed = false;
    for (const RoadGraph::Edge& e : edges) {
      const auto u = static_cast<std::size_t>(e.u);
      const auto v = static_cast<std::size_t>(e.v);
      if (dist[u] + e.weight < dist[v]) {
        dist[v] = dist[u] + e.weight;
        changed = true;
      }
      if (dist[v] + e.weight < dist[u]) {
        dist[u] = dist[v] + e.weight;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// Random plane-embedded graph whose edge weights respect the Metric
/// contract (weight >= Euclidean edge length). Not necessarily connected.
struct RandomGraph {
  std::vector<Point> nodes;
  std::vector<RoadGraph::Edge> edges;
};

RandomGraph MakeRandomGraph(Rng* rng, std::int32_t num_nodes,
                            std::int32_t num_edges) {
  RandomGraph g;
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    g.nodes.push_back({rng->Uniform(0.0, 100.0), rng->Uniform(0.0, 100.0)});
  }
  for (std::int32_t i = 0; i < num_edges; ++i) {
    RoadGraph::Edge e;
    e.u = static_cast<std::int32_t>(rng->UniformInt(0, num_nodes - 1));
    e.v = static_cast<std::int32_t>(rng->UniformInt(0, num_nodes - 1));
    if (e.u == e.v) continue;
    const double length = Distance(g.nodes[static_cast<std::size_t>(e.u)],
                                   g.nodes[static_cast<std::size_t>(e.v)]);
    e.weight = std::max(length, 1e-6) * (1.0 + rng->Uniform(0.0, 1.0));
    g.edges.push_back(e);
  }
  return g;
}

TEST(RoadGraphTest, DijkstraMatchesBellmanFordOnRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto num_nodes =
        static_cast<std::int32_t>(rng.UniformInt(2, 40));
    const auto num_edges =
        static_cast<std::int32_t>(rng.UniformInt(1, 4 * num_nodes));
    RandomGraph g = MakeRandomGraph(&rng, num_nodes, num_edges);
    if (g.edges.empty()) continue;
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();

    RoadGraph::Workspace ws;
    for (std::int32_t s = 0; s < num_nodes; ++s) {
      const std::vector<double> brute =
          BellmanFord(num_nodes, g.edges, s);
      graph.ShortestPaths(s, &ws);
      for (std::int32_t v = 0; v < num_nodes; ++v) {
        const double got = ws.dist[static_cast<std::size_t>(v)];
        const double want = brute[static_cast<std::size_t>(v)];
        if (std::isinf(want)) {
          EXPECT_TRUE(std::isinf(got)) << "s=" << s << " v=" << v;
        } else {
          EXPECT_NEAR(got, want, 1e-9) << "s=" << s << " v=" << v;
        }
      }
    }
  }
}

/// Full single-source solutions from a fresh workspace per source: the
/// reference the resumable workspace must match bit for bit.
std::vector<std::vector<double>> FullSolves(const RoadGraph& graph) {
  std::vector<std::vector<double>> all;
  for (std::int32_t s = 0; s < graph.num_nodes(); ++s) {
    RoadGraph::Workspace fresh;
    graph.ShortestPaths(s, &fresh);
    all.push_back(fresh.dist);
  }
  return all;
}

TEST(RoadGraphTest, ResumableWorkspaceMatchesFullSolvesBitForBit) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    // Two graphs share one workspace. Sparse edge counts leave many
    // graphs disconnected, and the last node of each is always isolated,
    // so every case has an unreachable pair.
    std::vector<RoadGraph> graphs;
    for (int k = 0; k < 2; ++k) {
      const auto num_nodes =
          static_cast<std::int32_t>(rng.UniformInt(3, 50));
      const auto num_edges =
          static_cast<std::int32_t>(rng.UniformInt(1, 3 * num_nodes));
      RandomGraph g = MakeRandomGraph(&rng, num_nodes - 1, num_edges);
      g.nodes.push_back({rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)});
      auto built = RoadGraph::Build(g.nodes, g.edges);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      graphs.push_back(std::move(built).value());
    }
    const std::vector<std::vector<double>> want[2] = {FullSolves(graphs[0]),
                                                      FullSolves(graphs[1])};

    RoadGraph::Workspace ws;
    auto check = [&](int k, std::int32_t u, std::int32_t v) {
      const std::vector<double>& full = want[k][static_cast<std::size_t>(u)];
      EXPECT_EQ(graphs[static_cast<std::size_t>(k)].NodeDistance(u, v, &ws),
                full[static_cast<std::size_t>(v)])
          << "trial=" << trial << " graph=" << k << " u=" << u << " v=" << v;
    };
    for (int k = 0; k < 2; ++k) {
      const RoadGraph& graph = graphs[static_cast<std::size_t>(k)];
      const std::int32_t last = graph.num_nodes() - 1;
      // Target == source settles only the source; the same source then
      // resumes after that partial settle, reaches the isolated node's
      // kUnreachable by exhausting its component, and answers again.
      check(k, 0, 0);
      check(k, 0, last);
      EXPECT_EQ(graph.NodeDistance(0, last, &ws), RoadGraph::kUnreachable);
      check(k, 0, graph.num_nodes() / 2);
      check(k, last, last);
      check(k, last, 0);
    }
    // Random interleaved queries: sources from a small pool, so the same
    // source often comes back after a partial settle, mixed with switches
    // of source and of graph.
    for (int q = 0; q < 300; ++q) {
      const auto k = static_cast<int>(rng.UniformInt(0, 1));
      const RoadGraph& graph = graphs[static_cast<std::size_t>(k)];
      const std::int32_t n = graph.num_nodes();
      const auto u = static_cast<std::int32_t>(
          rng.UniformInt(0, std::min<std::int32_t>(3, n - 1)));
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      check(k, u, v);
    }
    // A full solve resumed from a partial one matches the fresh solve.
    graphs[0].NodeDistance(1, 1, &ws);
    graphs[0].ShortestPaths(1, &ws);
    EXPECT_EQ(ws.dist, want[0][1]);
  }
}

TEST(RoadGraphTest, LandmarkLowerBoundIsAdmissible) {
  Rng rng(11);
  RandomGraph g = MakeRandomGraph(&rng, 60, 200);
  auto built = RoadGraph::Build(g.nodes, g.edges);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const RoadGraph& graph = built.value();
  EXPECT_GT(graph.num_landmarks(), 0);

  RoadGraph::Workspace ws;
  for (int trial = 0; trial < 200; ++trial) {
    const auto u = static_cast<std::int32_t>(
        rng.UniformInt(0, graph.num_nodes() - 1));
    const auto v = static_cast<std::int32_t>(
        rng.UniformInt(0, graph.num_nodes() - 1));
    const double exact = graph.NodeDistance(u, v, &ws);
    const double bound = graph.LandmarkLowerBound(u, v);
    EXPECT_GE(bound, 0.0);
    if (!std::isinf(exact)) {
      EXPECT_LE(bound, exact + 1e-9) << "u=" << u << " v=" << v;
    }
  }
}

TEST(RoadGraphTest, SnapPrefersSmallerIdOnTies) {
  // Nodes 0 and 1 are equidistant from the query point.
  std::vector<Point> nodes = {{0.0, 0.0}, {2.0, 0.0}, {10.0, 10.0}};
  std::vector<RoadGraph::Edge> edges = {{0, 1, 2.0}, {1, 2, 15.0}};
  auto built = RoadGraph::Build(nodes, edges);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().Snap({1.0, 0.0}), 0);
  EXPECT_EQ(built.value().Snap({9.0, 9.0}), 2);
}

TEST(RoadGraphTest, SerializeParseRoundTrip) {
  Rng rng(3);
  RandomGraph g = MakeRandomGraph(&rng, 20, 50);
  auto built = RoadGraph::Build(g.nodes, g.edges);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string text = built.value().Serialize();
  auto reparsed = RoadGraph::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().num_nodes(), built.value().num_nodes());
  EXPECT_EQ(reparsed.value().num_edges(), built.value().num_edges());
  EXPECT_EQ(reparsed.value().Serialize(), text);
}

TEST(RoadGraphTest, BuildRejectsContractViolations) {
  const std::vector<Point> nodes = {{0.0, 0.0}, {3.0, 4.0}};
  // Weight below the 5.0 Euclidean edge length breaks the Metric contract.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 1, 4.0}}).ok());
  // Self loop.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 0, 1.0}}).ok());
  // Endpoint out of range.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 2, 9.0}}).ok());
  // Non-positive weight.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 1, 0.0}}).ok());
  // The conforming edge builds.
  EXPECT_TRUE(RoadGraph::Build(nodes, {{0, 1, 5.0}}).ok());
}

TEST(RoadMetricTest, DistanceDominatesEuclidean) {
  Rng rng(19);
  gen::RoadConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.world_side = 100.0;
  auto built = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  RoadMetric metric(std::make_shared<RoadGraph>(std::move(built).value()));

  for (int trial = 0; trial < 200; ++trial) {
    const Point a{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Point b{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const double road = metric.Distance(a, b);
    EXPECT_GE(road, Distance(a, b) - 1e-9);
    // The ALT-assisted lower bound must never exceed the true distance.
    EXPECT_LE(metric.LowerBound(a, b), road + 1e-9);
    // Symmetric (undirected network).
    EXPECT_NEAR(metric.Distance(b, a), road, 1e-9);
  }
}

TEST(GridRoadGeneratorTest, DeterministicAndConnected) {
  gen::RoadConfig cfg;
  cfg.rows = 8;
  cfg.cols = 9;
  cfg.world_side = 50.0;
  cfg.seed = 42;
  auto first = gen::GenerateGridRoadGraph(cfg);
  auto second = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().Serialize(), second.value().Serialize());
  EXPECT_EQ(first.value().num_nodes(), 72);

  // The lattice keeps everything reachable from node 0.
  RoadGraph::Workspace ws;
  first.value().ShortestPaths(0, &ws);
  for (double d : ws.dist) EXPECT_TRUE(std::isfinite(d));
}

TEST(GridRoadGeneratorTest, RejectsBadConfigs) {
  gen::RoadConfig cfg;
  cfg.rows = 1;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
  cfg = gen::RoadConfig{};
  cfg.position_jitter = 0.5;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
  cfg = gen::RoadConfig{};
  cfg.congestion = -0.1;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
}

}  // namespace
}  // namespace geo
}  // namespace ltc
