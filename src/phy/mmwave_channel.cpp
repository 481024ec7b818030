#include "phy/mmwave_channel.hpp"

#include "geom/pose.hpp"

namespace cyclops::phy {
namespace {

ChannelInfo make_mmwave_info(const baseline::MmWaveConfig& radio) {
  ChannelInfo info;
  info.name = "mmwave-60ghz";
  info.peak_rate_gbps =
      baseline::mcs_table().back().phy_rate_gbps * radio.mac_efficiency;
  info.sensitivity = baseline::mcs_table().front().min_snr_db;
  info.rate_adaptive = true;
  return info;
}

}  // namespace

MmWaveChannel::MmWaveChannel(MmWaveChannelConfig config,
                             obs::Registry* registry)
    : config_(std::move(config)),
      session_(config_.radio, registry),
      info_(make_mmwave_info(config_.radio)) {}

double MmWaveChannel::power_at(const geom::Pose& rig_pose, util::SimTimeUs t) {
  if (have_pose_) {
    cum_rotation_rad_ += geom::rotation_distance(last_pose_, rig_pose);
  }
  last_pose_ = rig_pose;
  have_pose_ = true;
  last_blocked_ = config_.blockage && config_.blockage(t);
  const double range =
      geom::distance(rig_pose.translation(), config_.ap_position);
  return session_.link().snr_db(range, last_blocked_);
}

double MmWaveChannel::rate_for(double snr_db) const {
  return session_.link().phy_rate_gbps(snr_db) *
         config_.radio.mac_efficiency;
}

bool MmWaveChannel::step(util::SimTimeUs now, double snr_db) {
  const bool retraining =
      session_.observe(now, cum_rotation_rad_, snr_db, last_blocked_);
  return !retraining && snr_db >= info_.sensitivity;
}

}  // namespace cyclops::phy
