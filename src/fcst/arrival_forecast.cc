#include "fcst/arrival_forecast.h"

#include <cmath>

#include "common/snap_reader.h"
#include "common/string_util.h"

namespace ltc {
namespace fcst {

namespace {

/// Decay factor from a cell's last update to `now`. A non-positive elapsed
/// time (same-instant events, or a clock the caller failed to keep
/// monotone) decays nothing — the estimate is never amplified.
double Decay(double last, double now, double tau) {
  const double dt = now - last;
  if (dt <= 0.0) return 1.0;
  return std::exp(-dt / tau);
}

}  // namespace

StatusOr<CellRateEstimator> CellRateEstimator::Create(const Config& config) {
  if (!(config.horizon > 0.0)) {
    return Status::InvalidArgument("forecast horizon must be > 0");
  }
  if (config.grid.num_cells() <= 0) {
    return Status::InvalidArgument("forecast grid has no cells");
  }
  CellRateEstimator estimator(config);
  estimator.cells_.resize(static_cast<std::size_t>(config.grid.num_cells()));
  return estimator;
}

void CellRateEstimator::OnWorkerArrival(const geo::Point& p, double t) {
  Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  const double decay = Decay(cell.last, t, config_.horizon);
  cell.worker_rate = cell.worker_rate * decay + 1.0 / config_.horizon;
  cell.task_rate *= decay;
  cell.last = t;
  cell.touched = true;
  ++events_;
}

void CellRateEstimator::OnTaskArrival(const geo::Point& p, double t) {
  Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  const double decay = Decay(cell.last, t, config_.horizon);
  cell.worker_rate *= decay;
  cell.task_rate = cell.task_rate * decay + 1.0 / config_.horizon;
  cell.last = t;
  cell.touched = true;
  ++events_;
}

double CellRateEstimator::WorkerRate(const geo::Point& p, double now) const {
  const Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  if (!cell.touched) return 0.0;
  return cell.worker_rate * Decay(cell.last, now, config_.horizon);
}

double CellRateEstimator::TaskRate(const geo::Point& p, double now) const {
  const Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  if (!cell.touched) return 0.0;
  return cell.task_rate * Decay(cell.last, now, config_.horizon);
}

void CellRateEstimator::CellRates(double now,
                                  std::vector<CellRate>* out) const {
  out->clear();
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (!cell.touched) continue;
    const double decay = Decay(cell.last, now, config_.horizon);
    out->push_back(CellRate{static_cast<std::int64_t>(c),
                            cell.worker_rate * decay,
                            cell.task_rate * decay});
  }
}

Status CellRateEstimator::SerializeTo(std::string* out) const {
  std::int64_t touched = 0;
  for (const Cell& cell : cells_) touched += cell.touched ? 1 : 0;
  AppendRecord(out, "fcst", cells_.size(), config_.horizon, events_, touched);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (!cell.touched) continue;
    AppendRecord(out, "fc", c, cell.worker_rate, cell.task_rate, cell.last);
  }
  out->append("endfcst\n");
  return Status::OK();
}

Status CellRateEstimator::RestoreFrom(std::string_view blob) {
  snap::Reader reader(blob);
  snap::Fields f;
  std::int64_t n_cells = 0;
  double horizon = 0.0;
  std::int64_t n_touched = 0;
  if (!reader.Read("fcst", 5, &f).ok() || f.size() != 5) {
    return Status::InvalidArgument("forecast blob: bad header");
  }
  if (!ParseInt64(f[1], &n_cells) || !ParseDouble(f[2], &horizon) ||
      !ParseInt64(f[3], &events_) || !ParseInt64(f[4], &n_touched)) {
    return Status::InvalidArgument("forecast blob: unparseable header");
  }
  if (n_cells != static_cast<std::int64_t>(cells_.size()) ||
      horizon != config_.horizon) {
    return Status::InvalidArgument(
        "forecast blob: geometry/horizon mismatch with this configuration");
  }
  for (Cell& cell : cells_) cell = Cell{};
  for (std::int64_t i = 0; i < n_touched; ++i) {
    if (!reader.Read("fc", 5, &f).ok() || f.size() != 5) {
      return Status::InvalidArgument("forecast blob: bad cell record");
    }
    std::int64_t c = 0;
    Cell cell;
    if (!ParseInt64(f[1], &c) || !ParseDouble(f[2], &cell.worker_rate) ||
        !ParseDouble(f[3], &cell.task_rate) ||
        !ParseDouble(f[4], &cell.last)) {
      return Status::InvalidArgument("forecast blob: unparseable cell record");
    }
    if (c < 0 || c >= n_cells) {
      return Status::OutOfRange("forecast blob: cell index out of range");
    }
    cell.touched = true;
    cells_[static_cast<std::size_t>(c)] = cell;
  }
  if (!reader.Read("endfcst", 1, &f).ok() || !reader.AtEnd()) {
    return Status::InvalidArgument("forecast blob: missing endfcst trailer");
  }
  return Status::OK();
}

}  // namespace fcst
}  // namespace ltc
