#include "motion/trace_generator.hpp"

#include <algorithm>
#include <cmath>

#include "geom/mat3.hpp"
#include "util/units.hpp"

namespace cyclops::motion {
namespace {

/// One-dimensional Ornstein-Uhlenbeck process stepped at dt.
class OuProcess {
 public:
  OuProcess(double sigma, double time_constant_s, double dt)
      : relax_(std::exp(-dt / time_constant_s)),
        noise_(sigma * std::sqrt(1.0 - relax_ * relax_)) {}

  double step(util::Rng& rng) {
    value_ = value_ * relax_ + rng.normal(0.0, noise_);
    return value_;
  }
  double value() const noexcept { return value_; }
  void scale(double k) noexcept { value_ *= k; }

 private:
  double relax_;
  double noise_;
  double value_ = 0.0;
};

}  // namespace

Trace generate_viewing_trace(const geom::Pose& base,
                             const TraceGeneratorConfig& config,
                             util::Rng& rng) {
  const double dt = config.sample_period_ms * 1e-3;
  const auto n = static_cast<std::size_t>(config.duration_s / dt) + 1;

  OuProcess yaw_rate(config.yaw_rate_sigma, config.rate_time_constant_s, dt);
  OuProcess pitch_rate(config.pitch_rate_sigma, config.rate_time_constant_s,
                       dt);
  OuProcess roll_rate(config.roll_rate_sigma, config.rate_time_constant_s, dt);
  OuProcess sway[3] = {
      {config.sway_speed_sigma, config.sway_time_constant_s, dt},
      {config.sway_speed_sigma, config.sway_time_constant_s, dt},
      {config.sway_speed_sigma, config.sway_time_constant_s, dt}};

  double yaw = 0.0, pitch = 0.0, roll = 0.0;
  geom::Vec3 offset{};
  double saccade_left_s = 0.0;
  double saccade_rate = 0.0;
  double shift_left_s = 0.0;
  geom::Vec3 shift_velocity{};

  // Head orientation relative to the base: yaw about base-frame y (up),
  // pitch about x, roll about z.
  const geom::PreparedRotation yaw_axis(base.rotation() * geom::Vec3{0, 1, 0});
  const geom::PreparedRotation pitch_axis(base.rotation() *
                                          geom::Vec3{1, 0, 0});
  const geom::PreparedRotation roll_axis(base.rotation() *
                                         geom::Vec3{0, 0, 1});

  Trace trace;
  trace.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<util::SimTimeUs>(
        static_cast<double>(i) * config.sample_period_ms * 1e3);

    const geom::Mat3 head_rot = yaw_axis.matrix(yaw) *
                                pitch_axis.matrix(pitch) *
                                roll_axis.matrix(roll);
    trace.samples.push_back(
        {t, geom::Pose{head_rot * base.rotation(),
                       base.translation() + offset}});

    // Saccade scheduling.
    if (saccade_left_s <= 0.0 &&
        rng.uniform() < config.saccade_rate_hz * dt) {
      saccade_left_s = config.saccade_duration_s;
      saccade_rate = rng.uniform(-1.0, 1.0) * config.saccade_peak_rps;
    }
    double extra_yaw_rate = 0.0;
    if (saccade_left_s > 0.0) {
      // Smooth half-sine burst profile.
      const double phase = 1.0 - saccade_left_s / config.saccade_duration_s;
      extra_yaw_rate = saccade_rate * std::sin(phase * util::kPi);
      saccade_left_s -= dt;
    }

    double wy = yaw_rate.step(rng) + extra_yaw_rate;
    double wp = pitch_rate.step(rng);
    double wr = roll_rate.step(rng);

    // Steer pitch back toward level when approaching the comfort limit.
    if (std::abs(pitch) > config.max_pitch_rad * 0.7) {
      wp -= 0.8 * pitch * dt / config.rate_time_constant_s;
    }

    // Hard angular-speed cap.
    const double w_norm = std::sqrt(wy * wy + wp * wp + wr * wr);
    if (w_norm > config.max_angular_rps) {
      const double k = config.max_angular_rps / w_norm;
      wy *= k;
      wp *= k;
      wr *= k;
    }
    yaw += wy * dt;
    pitch = std::clamp(pitch + wp * dt, -config.max_pitch_rad,
                       config.max_pitch_rad);
    roll += wr * dt;
    roll *= 0.999;  // roll relaxes toward level

    // Posture-shift scheduling (lean / re-seat): a half-sine burst of
    // linear velocity in a random mostly-horizontal direction.
    if (shift_left_s <= 0.0 && rng.uniform() < config.shift_rate_hz * dt) {
      shift_left_s = config.shift_duration_s;
      const geom::Vec3 dir =
          geom::Vec3{rng.normal(), 0.3 * rng.normal(), rng.normal()}
              .normalized();
      shift_velocity = dir * (config.shift_peak_mps * rng.uniform(0.6, 1.0));
    }
    geom::Vec3 shift{};
    if (shift_left_s > 0.0) {
      const double phase = 1.0 - shift_left_s / config.shift_duration_s;
      shift = shift_velocity * std::sin(phase * util::kPi);
      shift_left_s -= dt;
    }

    // Positional sway with spring-back and a hard linear-speed cap.
    geom::Vec3 v{sway[0].step(rng), sway[1].step(rng), sway[2].step(rng)};
    v += shift;
    v -= offset * (config.sway_spring * dt);
    const double v_norm = v.norm();
    if (v_norm > config.max_linear_mps) v *= config.max_linear_mps / v_norm;
    offset += v * dt;
  }
  return trace;
}

Trace generate_walking_trace(const geom::Pose& base,
                             const WalkingConfig& config, util::Rng& rng) {
  const double dt = config.sample_period_ms * 1e-3;
  const auto n = static_cast<std::size_t>(config.duration_s / dt) + 1;

  Trace trace;
  trace.samples.reserve(n);

  geom::Vec3 position = base.translation();
  geom::Vec3 waypoint = position;
  double pause_left = 0.5;
  double yaw = 0.0, yaw_target = 0.0;
  // Gaze jitter: smooth *rates* (OU) integrated into angles with a spring
  // back to neutral — an OU process used directly as an angle would have
  // a white-noise derivative (unphysical head speeds).
  OuProcess gaze_yaw_rate(config.gaze_yaw_sigma * 0.8, 0.5, dt);
  OuProcess gaze_pitch_rate(config.gaze_pitch_sigma * 0.8, 0.5, dt);
  double gaze_yaw = 0.0, gaze_pitch = 0.0;
  double speed = 0.0;

  const geom::PreparedRotation yaw_axis(base.rotation() * geom::Vec3{0, 1, 0});
  const geom::PreparedRotation pitch_axis(base.rotation() *
                                          geom::Vec3{1, 0, 0});

  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<util::SimTimeUs>(
        static_cast<double>(i) * config.sample_period_ms * 1e3);

    const geom::Mat3 head_rot =
        yaw_axis.matrix(yaw + gaze_yaw) * pitch_axis.matrix(gaze_pitch);
    trace.samples.push_back(
        {t, geom::Pose{head_rot * base.rotation(), position}});

    gaze_yaw += (gaze_yaw_rate.step(rng) - 0.8 * gaze_yaw) * dt;
    gaze_pitch += (gaze_pitch_rate.step(rng) - 0.8 * gaze_pitch) * dt;

    const geom::Vec3 to_waypoint = waypoint - position;
    if (to_waypoint.norm() < 0.03) {
      if (pause_left > 0.0) {
        pause_left -= dt;
      } else {
        // Pick the next waypoint in the walkable box (base-local x/z).
        const geom::Vec3 local{
            rng.uniform(-config.area_half_extent, config.area_half_extent),
            0.0,
            rng.uniform(-config.area_half_extent, config.area_half_extent)};
        waypoint = base.translation() + base.rotation() * local;
        speed = rng.uniform(config.walk_speed_min, config.walk_speed_max);
        pause_left = rng.uniform(config.pause_s_min, config.pause_s_max);
        // Face roughly along the walk (free-roaming mode only).
        const geom::Vec3 heading = waypoint - position;
        if (config.face_walk_direction && heading.norm() > 0.05) {
          // Yaw relative to the base forward (+z in base frame).
          const geom::Vec3 local_heading =
              base.rotation().transposed() * heading.normalized();
          yaw_target = std::atan2(local_heading.x, local_heading.z);
        }
      }
    } else {
      position += to_waypoint.normalized() * std::min(speed * dt,
                                                      to_waypoint.norm());
    }
    // Turn the head toward the walk heading at a natural rate (~57 deg/s
    // peak, proportional slow-in near the target).
    const double yaw_error = yaw_target - yaw;
    const double turn_rate = std::clamp(2.5 * yaw_error, -1.0, 1.0);
    yaw += turn_rate * dt;
  }
  return trace;
}

std::vector<Trace> generate_dataset(const geom::Pose& base, int count,
                                    const TraceGeneratorConfig& config,
                                    util::Rng& rng, util::ThreadPool& pool) {
  // Advance the caller's stream once, then derive child i as a pure
  // function of (dataset stream, i): trace i is the same no matter how the
  // items are partitioned across threads.
  const util::Rng dataset_rng = rng.split();
  return util::parallel_map<Trace>(
      static_cast<std::size_t>(std::max(count, 0)),
      [&](std::size_t i) {
        util::Rng trace_rng = dataset_rng.split(i);
        // Viewer-style variation: calm watchers to active explorers.
        TraceGeneratorConfig c = config;
        const double activity = trace_rng.uniform(0.4, 1.5);
        c.yaw_rate_sigma *= activity;
        c.pitch_rate_sigma *= activity;
        c.roll_rate_sigma *= activity;
        c.sway_speed_sigma *= activity;
        c.saccade_rate_hz *= activity;
        c.shift_rate_hz *= activity;
        return generate_viewing_trace(base, c, trace_rng);
      },
      pool);
}

}  // namespace cyclops::motion
