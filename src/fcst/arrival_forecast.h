// Online arrival-rate forecasting over grid cells (DESIGN.md §13).
//
// The streaming service's batching deadline is a wager: hold the batch open
// when a better match is likely to arrive soon, flush when the neighborhood
// is quiet. Settling that wager needs a per-cell arrival-*rate* estimate
// that is (a) maintained online, O(1) per event, because it sits on the
// admission hot path, and (b) a pure function of the event prefix, because
// the serve log's determinism contract (byte-identical for any --threads,
// pinned per configuration) must survive the forecast driving flush times.
//
// The estimator is a continuous-time EWMA per cell of the same grid
// geometry the incremental task index uses (geo::CellGrid mirrors
// geo::GridIndex's clamped floor cells). On an arrival at time t in cell c:
//
//     rate[c] <- rate[c] * exp(-(t - last[c]) / tau) + 1 / tau
//     last[c] <- t
//
// and a query at time `now` reads rate[c] * exp(-(now - last[c]) / tau).
// For a stationary Poisson process of intensity lambda the expectation of
// this estimate converges to lambda (each event contributes 1/tau and
// decays with time constant tau, so E[rate] = lambda * integral of
// exp(-s/tau)/tau = lambda); tau — the forecast horizon — trades reaction
// speed against variance. tests/fcst_test.cc pins convergence and decay.
//
// The same per-cell rates are the occupancy signal the planned 2-D shard
// rebalancer consumes (ROADMAP: adaptive 2-D sharding): CellRates exposes
// the full decayed rate surface.

#ifndef LTC_FCST_ARRIVAL_FORECAST_H_
#define LTC_FCST_ARRIVAL_FORECAST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geo/cell_grid.h"
#include "geo/point.h"

namespace ltc {
namespace fcst {

/// \brief Query interface of an arrival forecast.
///
/// The svc pipeline installs a pointer to its forecast into the scheduler
/// protocol (algo::OnlineScheduler::InstallForecast), so schedulers can
/// condition on predicted arrivals without the algo layer depending on the
/// estimator implementation. Rates are events per stream-time unit; queries
/// are const and safe concurrently with each other (not with updates).
class ArrivalForecast {
 public:
  virtual ~ArrivalForecast() = default;

  /// Estimated worker-arrival rate in the cell containing `p`, decayed to
  /// `now`. Never negative; 0 for a never-touched cell.
  virtual double WorkerRate(const geo::Point& p, double now) const = 0;

  /// Estimated task-arrival rate in the cell containing `p`, decayed to
  /// `now`.
  virtual double TaskRate(const geo::Point& p, double now) const = 0;
};

/// One cell's decayed rates (CellRateEstimator::CellRates).
struct CellRate {
  std::int64_t cell = 0;
  double worker_rate = 0.0;
  double task_rate = 0.0;
};

/// \brief Per-grid-cell EWMA arrival-rate estimator.
///
/// Mutations (OnWorkerArrival/OnTaskArrival) are single-threaded — the svc
/// engine thread owns them, exactly like the rest of the pipeline's
/// mutable state. Updates never allocate: the cell table is sized at
/// construction from the grid geometry.
class CellRateEstimator final : public ArrivalForecast {
 public:
  struct Config {
    /// Cell decomposition; the default single-cell grid is the fallback for
    /// accuracy models without spatial structure (one global rate).
    geo::CellGrid grid;
    /// EWMA time constant tau, in stream-time units (> 0).
    double horizon = 8.0;
  };

  /// Builds an all-zero estimator. config.horizon must be > 0.
  static StatusOr<CellRateEstimator> Create(const Config& config);

  /// O(1): records one worker arrival at `p`, time `t`. Times must be
  /// non-decreasing per cell (the engine's stream clock guarantees it; a
  /// backwards time is clamped, never amplified).
  void OnWorkerArrival(const geo::Point& p, double t);
  /// O(1): records one task arrival at `p`, time `t`.
  void OnTaskArrival(const geo::Point& p, double t);

  double WorkerRate(const geo::Point& p, double now) const override;
  double TaskRate(const geo::Point& p, double now) const override;

  /// The decayed rate surface at `now` — every cell that ever saw an
  /// arrival, ascending by cell index. The occupancy signal for the shard
  /// rebalancer.
  void CellRates(double now, std::vector<CellRate>* out) const;

  /// Arrivals recorded since construction (workers + tasks).
  std::int64_t events() const { return events_; }
  std::int64_t num_cells() const { return config_.grid.num_cells(); }
  double horizon() const { return config_.horizon; }

  /// Appends the estimator's state as '\n'-terminated lines: a "fcst"
  /// header, one "fc" line per touched cell (ascending cell index), and an
  /// "endfcst" trailer. %.17g doubles, so a restore is bit-exact and a
  /// restarted service forecasts — and therefore flushes — identically
  /// (DESIGN.md §13).
  Status SerializeTo(std::string* out) const;

  /// Counterpart of SerializeTo: rebuilds from `blob` (the lines between
  /// and including "fcst".."endfcst"). The config must match the writer's.
  Status RestoreFrom(std::string_view blob);

 private:
  struct Cell {
    double worker_rate = 0.0;
    double task_rate = 0.0;
    double last = 0.0;
    bool touched = false;
  };

  explicit CellRateEstimator(const Config& config) : config_(config) {}

  Config config_;
  std::vector<Cell> cells_;
  std::int64_t events_ = 0;
};

}  // namespace fcst
}  // namespace ltc

#endif  // LTC_FCST_ARRIVAL_FORECAST_H_
