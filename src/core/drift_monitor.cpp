#include "core/drift_monitor.hpp"

#include <algorithm>
#include <cmath>

namespace cyclops::core {

void DriftMonitor::on_post_realignment_power(double power_dbm) {
  if (!std::isfinite(power_dbm)) {
    // Occlusion or total loss: not evidence about the mapping.  (Drift
    // shows up as a *consistent shallow* shortfall, not a blackout.)
    return;
  }
  if (samples_ == 0) {
    ema_ = power_dbm;
  } else {
    const double alpha =
        1.0 / std::min(samples_ + 1, config_.window_samples);
    ema_ += alpha * (power_dbm - ema_);
  }
  ++samples_;
  if (samples_ >= config_.min_samples &&
      ema_ < config_.healthy_power_dbm - config_.drift_threshold_db) {
    latched_ = true;
  }
}

bool DriftMonitor::recalibration_needed() const noexcept { return latched_; }

void DriftMonitor::reset() {
  ema_ = 0.0;
  samples_ = 0;
  latched_ = false;
}

}  // namespace cyclops::core
