#include "motion/profile.hpp"

#include <algorithm>
#include <cmath>

#include "geom/mat3.hpp"

namespace cyclops::motion {

Speeds measure_speeds(const MotionProfile& profile, util::SimTimeUs t,
                      util::SimTimeUs dt) {
  const geom::Pose a = profile.pose_at(t > dt ? t - dt : 0);
  const geom::Pose b = profile.pose_at(t + dt);
  const double span_s = util::us_to_s(t > dt ? 2 * dt : t + dt);
  if (span_s <= 0.0) return {};
  return {geom::translation_distance(a, b) / span_s,
          geom::rotation_distance(a, b) / span_s};
}

std::vector<double> increasing_speeds(double start, double step, double max) {
  std::vector<double> speeds;
  for (double s = start; s <= max + 1e-9; s += step) speeds.push_back(s);
  return speeds;
}

// --- LinearStrokeMotion ---

LinearStrokeMotion::LinearStrokeMotion(geom::Pose base, geom::Vec3 axis,
                                       double half_stroke,
                                       std::vector<double> stroke_speeds,
                                       double rest_s)
    : base_(std::move(base)), axis_(axis.normalized()) {
  double t = 0.0;
  double position = -half_stroke;
  for (double speed : stroke_speeds) {
    const double target = position < 0.0 ? half_stroke : -half_stroke;
    const double duration =
        std::abs(target - position) / std::max(speed, 1e-6);
    segments_.push_back({t, t + duration, position, target});
    t += duration;
    position = target;
    segments_.push_back({t, t + rest_s, position, position});
    t += rest_s;
  }
  total_s_ = t;
}

geom::Pose LinearStrokeMotion::pose_at(util::SimTimeUs t) const {
  const double t_s = util::us_to_s(t);
  double offset = segments_.empty() ? 0.0 : segments_.back().to_offset;
  for (const auto& seg : segments_) {
    if (t_s <= seg.end_s) {
      const double span = seg.end_s - seg.start_s;
      const double frac =
          span > 0.0 ? std::clamp((t_s - seg.start_s) / span, 0.0, 1.0) : 1.0;
      offset = seg.from_offset + frac * (seg.to_offset - seg.from_offset);
      break;
    }
  }
  return {base_.rotation(), base_.translation() + axis_ * offset};
}

// --- AngularStrokeMotion ---

AngularStrokeMotion::AngularStrokeMotion(geom::Pose base, geom::Vec3 axis,
                                         double half_angle,
                                         std::vector<double> stroke_speeds,
                                         double rest_s)
    : base_(std::move(base)), axis_(base_.rotation() * axis.normalized()) {
  double t = 0.0;
  double angle = -half_angle;
  for (double speed : stroke_speeds) {
    const double target = angle < 0.0 ? half_angle : -half_angle;
    const double duration = std::abs(target - angle) / std::max(speed, 1e-6);
    segments_.push_back({t, t + duration, angle, target});
    t += duration;
    angle = target;
    segments_.push_back({t, t + rest_s, angle, angle});
    t += rest_s;
  }
  total_s_ = t;
}

geom::Pose AngularStrokeMotion::pose_at(util::SimTimeUs t) const {
  const double t_s = util::us_to_s(t);
  double angle = segments_.empty() ? 0.0 : segments_.back().to_angle;
  for (const auto& seg : segments_) {
    if (t_s <= seg.end_s) {
      const double span = seg.end_s - seg.start_s;
      const double frac =
          span > 0.0 ? std::clamp((t_s - seg.start_s) / span, 0.0, 1.0) : 1.0;
      angle = seg.from_angle + frac * (seg.to_angle - seg.from_angle);
      break;
    }
  }
  // Rotate about the axis through the rig origin (the rotation stage sits
  // under the breadboard).
  return {axis_.matrix(angle) * base_.rotation(), base_.translation()};
}

// --- MixedRandomMotion ---

MixedRandomMotion::MixedRandomMotion(geom::Pose base, Config config,
                                     util::Rng rng)
    : config_(config) {
  const double dt = config_.sample_period_s;
  const std::size_t n =
      static_cast<std::size_t>(config_.duration_s / dt) + 2;
  samples_.reserve(n);

  geom::Vec3 position = base.translation();
  geom::Mat3 rotation = base.rotation();
  geom::Vec3 lin_vel{}, ang_vel{};
  const double relax = std::exp(-dt / config_.time_constant_s);
  // OU stationary-variance-preserving noise scale.
  const double lin_noise =
      config_.linear_speed_sigma * std::sqrt(1.0 - relax * relax);
  const double ang_noise =
      config_.angular_speed_sigma * std::sqrt(1.0 - relax * relax);

  for (std::size_t i = 0; i < n; ++i) {
    samples_.push_back({rotation, position});

    lin_vel = lin_vel * relax +
              geom::Vec3{rng.normal(0.0, lin_noise), rng.normal(0.0, lin_noise),
                         rng.normal(0.0, lin_noise)};
    ang_vel = ang_vel * relax +
              geom::Vec3{rng.normal(0.0, ang_noise), rng.normal(0.0, ang_noise),
                         rng.normal(0.0, ang_noise)};

    // Spring back toward the base position to stay within the coverage cone.
    const geom::Vec3 excursion = position - base.translation();
    lin_vel -= excursion * (config_.position_spring * dt);
    if (excursion.norm() > config_.max_excursion) {
      lin_vel -= excursion.normalized() * 0.2;
    }

    // Spring the orientation back toward the base as well.
    const geom::Vec3 rotation_offset =
        geom::rotation_vector(rotation * base.rotation().transposed());
    ang_vel -= rotation_offset * (config_.orientation_spring * dt);
    if (rotation_offset.norm() > config_.max_rotation) {
      ang_vel -= rotation_offset.normalized() * 0.15;
    }

    // Hard speed caps (the §5.3 methodology bounds speeds explicitly).
    const double lin_speed = lin_vel.norm();
    if (lin_speed > config_.max_linear_speed) {
      lin_vel *= config_.max_linear_speed / lin_speed;
    }
    const double ang_speed = ang_vel.norm();
    if (ang_speed > config_.max_angular_speed) {
      ang_vel *= config_.max_angular_speed / ang_speed;
    }

    position += lin_vel * dt;
    if (ang_speed > 1e-9) {
      rotation = geom::Mat3::rotation(ang_vel, ang_vel.norm() * dt) * rotation;
    }
  }
}

geom::Pose MixedRandomMotion::pose_at(util::SimTimeUs t) const {
  const double t_s = std::clamp(util::us_to_s(t), 0.0, config_.duration_s);
  const double idx_f = t_s / config_.sample_period_s;
  const std::size_t idx =
      std::min(static_cast<std::size_t>(idx_f), samples_.size() - 2);
  const double frac = std::clamp(idx_f - static_cast<double>(idx), 0.0, 1.0);

  const geom::Pose& a = samples_[idx];
  const geom::Pose& b = samples_[idx + 1];
  const geom::Quat qa = a.rotation_quat();
  const geom::Quat qb = b.rotation_quat();
  return geom::Pose{geom::slerp(qa, qb, frac).to_matrix(),
                    a.translation() +
                        (b.translation() - a.translation()) * frac};
}

}  // namespace cyclops::motion
