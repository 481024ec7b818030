// Rig motion profiles reproducing the §5.3 evaluation methodology:
// the linear rail, the rotation stage, and free hand-held movement.
#pragma once

#include <memory>
#include <vector>

#include "geom/pose.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::motion {

/// World pose of the RX rig as a function of simulation time.
class MotionProfile {
 public:
  virtual ~MotionProfile() = default;
  virtual geom::Pose pose_at(util::SimTimeUs t) const = 0;
  virtual double duration_s() const = 0;
};

/// Instantaneous linear (m/s) and angular (rad/s) speeds measured by
/// central differencing, mirroring how the paper derives speeds from
/// VRH-T reports.
struct Speeds {
  double linear_mps = 0.0;
  double angular_rps = 0.0;
};
Speeds measure_speeds(const MotionProfile& profile, util::SimTimeUs t,
                      util::SimTimeUs dt = 5000);

/// Rig clamped in place.
class StillMotion final : public MotionProfile {
 public:
  explicit StillMotion(geom::Pose pose, double duration_s = 60.0)
      : pose_(std::move(pose)), duration_s_(duration_s) {}
  geom::Pose pose_at(util::SimTimeUs) const override { return pose_; }
  double duration_s() const override { return duration_s_; }

 private:
  geom::Pose pose_;
  double duration_s_;
};

/// Linear rail: full strokes between +/- half_stroke along `axis` (rig
/// frame of `base`), one stroke per speed in `stroke_speeds`, with a
/// momentary rest at each end — §5.3's "single smooth stroke ... repeated
/// with gradually increasing stroke speeds".
class LinearStrokeMotion final : public MotionProfile {
 public:
  LinearStrokeMotion(geom::Pose base, geom::Vec3 axis, double half_stroke,
                     std::vector<double> stroke_speeds,
                     double rest_s = 0.25);
  geom::Pose pose_at(util::SimTimeUs t) const override;
  double duration_s() const override { return total_s_; }

 private:
  struct Segment {
    double start_s, end_s;
    double from_offset, to_offset;  ///< Along the axis (m).
  };
  geom::Pose base_;
  geom::Vec3 axis_;
  std::vector<Segment> segments_;
  double total_s_ = 0.0;
};

/// Rotation stage: angular strokes about `axis` through the rig origin,
/// +/- half_angle, one stroke per speed (rad/s).
class AngularStrokeMotion final : public MotionProfile {
 public:
  AngularStrokeMotion(geom::Pose base, geom::Vec3 axis, double half_angle,
                      std::vector<double> stroke_speeds, double rest_s = 0.25);
  geom::Pose pose_at(util::SimTimeUs t) const override;
  double duration_s() const override { return total_s_; }

 private:
  struct Segment {
    double start_s, end_s;
    double from_angle, to_angle;
  };
  geom::Pose base_;
  geom::PreparedRotation axis_;  ///< The stroke axis in the world frame.
  std::vector<Segment> segments_;
  double total_s_ = 0.0;
};

/// Hand-held rig: smooth random linear + angular motion (Ornstein-
/// Uhlenbeck velocities), with hard speed caps; position is springed back
/// toward the base pose so the rig stays in the coverage cone.
class MixedRandomMotion final : public MotionProfile {
 public:
  struct Config {
    double duration_s = 30.0;
    double sample_period_s = 0.005;
    double linear_speed_sigma = 0.06;    ///< Per-axis OU stddev (m/s).
    double angular_speed_sigma = 0.10;   ///< Per-axis OU stddev (rad/s).
    double max_linear_speed = 0.50;      ///< Hard cap (m/s).
    double max_angular_speed = 0.60;     ///< Hard cap (rad/s).
    double time_constant_s = 0.4;        ///< OU relaxation.
    double position_spring = 0.8;        ///< Pull-back toward base (1/s).
    double max_excursion = 0.25;         ///< Soft position bound (m).
    /// Pull-back of orientation toward the base (a hand-held tester keeps
    /// the assembly facing the TX; heads don't spin away mid-test).
    double orientation_spring = 1.2;     ///< (1/s)
    double max_rotation = 0.30;          ///< Soft orientation bound (rad).
  };
  MixedRandomMotion(geom::Pose base, Config config, util::Rng rng);
  geom::Pose pose_at(util::SimTimeUs t) const override;
  double duration_s() const override { return config_.duration_s; }

 private:
  Config config_;
  std::vector<geom::Pose> samples_;  ///< Precomputed at sample_period.
};

/// Convenience: the paper's increasing speed schedule (start, start+step,
/// ... until max), e.g. 5 cm/s up to 60 cm/s.
std::vector<double> increasing_speeds(double start, double step, double max);

}  // namespace cyclops::motion
