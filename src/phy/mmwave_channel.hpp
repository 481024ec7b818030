// phy::Channel adapter for the 60 GHz mmWave baseline (§1, §2.1): the
// 802.11ad MCS ladder, LOS blockage, and beam retraining become channel
// state behind the unified interface, so the same session core that runs
// the FSO link can run — and be compared against — the baseline.
//
// Metric: received SNR in dB.  power_at folds the blockage penalty in and
// accumulates head rotation from consecutive poses (the beam-training
// trigger), so call it once per slot in time order.  rate_for is the
// ideal-adaptation MCS ladder times MAC efficiency; step() reports the
// retraining outages.
#pragma once

#include <functional>

#include "baseline/mmwave.hpp"
#include "geom/vec3.hpp"
#include "phy/channel.hpp"

namespace cyclops::phy {

struct MmWaveChannelConfig {
  baseline::MmWaveConfig radio;
  /// Access-point position (the ceiling unit the phased array tracks).
  geom::Vec3 ap_position{0.0, 2.2, 0.0};
  /// Optional LOS obstruction (e.g. a passer-by); costs
  /// radio.blockage_loss_db while true.
  std::function<bool(util::SimTimeUs)> blockage;
};

class MmWaveChannel final : public Channel {
 public:
  /// Telemetry (retrain counter, MCS-dwell histograms, blockage spans —
  /// see baseline::MmWaveSession) lands in `registry` when given.
  explicit MmWaveChannel(MmWaveChannelConfig config,
                         obs::Registry* registry = nullptr);

  const ChannelInfo& info() const noexcept override { return info_; }

  double power_at(const geom::Pose& rig_pose, util::SimTimeUs t) override;
  double rate_for(double snr_db) const override;
  bool step(util::SimTimeUs now, double snr_db) override;

  /// Flushes the open MCS-dwell / blockage spans into the registry.
  void finish(util::SimTimeUs now) { session_.finish(now); }

  int retrains() const noexcept { return session_.retrains(); }
  const baseline::MmWaveLink& link() const noexcept { return session_.link(); }

 private:
  MmWaveChannelConfig config_;
  baseline::MmWaveSession session_;
  ChannelInfo info_;
  bool have_pose_ = false;
  geom::Pose last_pose_;
  double cum_rotation_rad_ = 0.0;
  bool last_blocked_ = false;
};

}  // namespace cyclops::phy
