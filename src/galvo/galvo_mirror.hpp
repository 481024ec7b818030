// The two-axis galvo mirror (GM), e.g. the ThorLabs GVS102, and the §4.1
// forward model G it obeys: input beam (p0, x0), per-mirror plane
// (n_i, q_i) and rotation axis (r_i), and the voltage-to-angle gain theta1
// shared by both mirrors:
//
//   n_i' = R(r_i, theta1 * v_i) * n_i
//   (p_mid, x_mid) = reflect(p0, x0 | n_1', q_1)
//   (p,     x    ) = reflect(p_mid, x_mid | n_2', q_2)
//
// One kernel (PreparedGalvo) evaluates G for both the learned model
// (core::GmaModel) and the physical device (GalvoMirror, the ground truth
// the learning pipeline in src/core must recover); the device adds only
// forward propagation, its voltage range and its mirrors' clear apertures.
//
// Note the output origin p lies on mirror 2 and moves with the voltages —
// the "distortion" effect [58] the paper insists must be modeled.
#pragma once

#include <array>
#include <cmath>
#include <optional>

#include "geom/mat3.hpp"
#include "geom/ray.hpp"
#include "geom/reflect.hpp"
#include "geom/vec3.hpp"

namespace cyclops::galvo {

/// The paper's GMA parameter set (Fig 7).
struct GalvoParams {
  geom::Vec3 p0;  ///< Input-beam origin (collimator output).
  geom::Vec3 x0;  ///< Input-beam direction (unit).
  geom::Vec3 n1;  ///< Mirror-1 normal at zero voltage (unit).
  geom::Vec3 q1;  ///< Point on mirror 1's plane and rotation axis.
  geom::Vec3 r1;  ///< Mirror-1 rotation-axis direction (unit).
  geom::Vec3 n2;  ///< Mirror-2 normal at zero voltage (unit).
  geom::Vec3 q2;  ///< Point on mirror 2's plane and rotation axis.
  geom::Vec3 r2;  ///< Mirror-2 rotation-axis direction (unit).
  double theta1 = 0.0;  ///< Mirror rotation per volt (rad/V), same for both.

  /// Flat 25-double encoding for the Stage-1 optimizer.
  static constexpr std::size_t kParamCount = 25;
  std::array<double, kParamCount> pack() const;
  static GalvoParams unpack(const std::array<double, kParamCount>& values);
};

/// Operating limits of the steering hardware.
struct GalvoSpec {
  double max_voltage = 10.0;        ///< |v| limit (V).
  double min_voltage_step = 1e-3;   ///< Smallest commanded step (V).
  double mirror_radius = 12e-3;     ///< Clear radius of each mirror (m).
  double small_angle_settle_s = 300e-6;  ///< GVS102 small-angle latency.
  double angular_accuracy_rad = 10e-6;   ///< GVS102 pointing accuracy.
};

/// GVS102-like defaults.
GalvoSpec gvs102_spec();

/// One mirror's rotation angle theta1 * v with its cosine and sine, so
/// callers that hold a voltage fixed across many traces (LM residuals,
/// G' probes) pay for the trig once.
struct MirrorAngle {
  double angle = 0.0;
  double cos = 1.0;
  double sin = 0.0;

  static MirrorAngle at(double angle) {
    return {angle, std::cos(angle), std::sin(angle)};
  }
};

/// Both mirrors' angles for one voltage pair.
struct MirrorAngles {
  MirrorAngle m1;
  MirrorAngle m2;

  static MirrorAngles at(double theta1, double v1, double v2) {
    return {MirrorAngle::at(theta1 * v1), MirrorAngle::at(theta1 * v2)};
  }
};

/// One mirror of a PreparedGalvo: its plane point, its zero-voltage normal
/// and its prepared rotation axis.
struct PreparedMirror {
  geom::Vec3 q;
  geom::Vec3 n;
  geom::PreparedRotation axis;

  PreparedMirror(const geom::Vec3& point, const geom::Vec3& normal,
                 const geom::Vec3& rotation_axis)
      : q(point), n(normal), axis(rotation_axis) {}

  /// The rotated normal R(r, a.angle) * n.
  geom::Vec3 normal(const MirrorAngle& a) const {
    return axis.matrix(a.angle, a.cos, a.sin) * n;
  }
  geom::Plane plane(const MirrorAngle& a) const { return {q, normal(a)}; }
};

/// The per-GalvoParams constants of the G kernel, hoisted out of every
/// trace: unit input direction, prepared rotation axes and theta1.
struct PreparedGalvo {
  geom::Vec3 p0;
  geom::Vec3 x0;  ///< Unit input direction.
  PreparedMirror mirror1;
  PreparedMirror mirror2;
  double theta1 = 0.0;

  explicit PreparedGalvo(const GalvoParams& params);

  MirrorAngles angles(double v1, double v2) const {
    return MirrorAngles::at(theta1, v1, v2);
  }

  /// Mirror-2 plane at voltage v2: it holds every output origin p and
  /// Lemma 1's target points tau.
  geom::Plane mirror2_plane(double v2) const {
    return mirror2.plane(MirrorAngle::at(theta1 * v2));
  }
};

// The kernel is defined inline: it runs tens of millions of times per
// calibration, and out of line its per-mirror and per-reflection calls
// cost about a quarter of an install's time.

/// A rotated mirror normal (PreparedMirror::normal) and the unit vector a
/// reflection off that mirror reads.
struct MirrorNormal {
  explicit MirrorNormal(const geom::Vec3& rotated)
      : n(rotated), unit(rotated.normalized()) {}
  geom::Vec3 n, unit;
};

// G's two stages, each the *algebraic* (non-forward-only) reflection with
// no aperture or voltage-range check: the closed-form G of §4.1 is a total
// function of the voltages, and the learned estimates must stay evaluable
// while the optimizer explores beyond the trained region.

/// The input beam off mirror 1.
inline std::optional<geom::Ray> first_bounce(const PreparedGalvo& galvo,
                                             const MirrorNormal& mirror1) {
  return geom::reflect({galvo.p0, galvo.x0}, {galvo.mirror1.q, mirror1.n},
                       mirror1.unit, /*forward_only=*/false);
}

/// The first bounce off mirror 2: G's output beam.
inline std::optional<geom::Ray> second_bounce(
    const PreparedGalvo& galvo, const std::optional<geom::Ray>& mid,
    const MirrorNormal& mirror2) {
  if (!mid) return std::nullopt;
  return geom::reflect(*mid, {galvo.mirror2.q, mirror2.n}, mirror2.unit,
                       /*forward_only=*/false);
}

/// The ideal G given both mirrors' rotated normals, for callers that also
/// need mirror 2's plane.
inline std::optional<geom::Ray> trace_ideal(const PreparedGalvo& galvo,
                                            const geom::Vec3& mirror1_normal,
                                            const geom::Vec3& mirror2_normal) {
  return second_bounce(galvo, first_bounce(galvo, MirrorNormal(mirror1_normal)),
                       MirrorNormal(mirror2_normal));
}

/// The ideal G at precomputed mirror angles.
inline std::optional<geom::Ray> trace_ideal(const PreparedGalvo& galvo,
                                            const MirrorAngles& angles) {
  return trace_ideal(galvo, galvo.mirror1.normal(angles.m1),
                     galvo.mirror2.normal(angles.m2));
}

/// The physical device: G's prepared kernel plus the hardware limits.
class GalvoMirror {
 public:
  GalvoMirror(GalvoParams params, GalvoSpec spec);

  const GalvoParams& params() const noexcept { return params_; }
  const GalvoSpec& spec() const noexcept { return spec_; }
  const PreparedGalvo& prepared() const noexcept { return prepared_; }

  /// Traces the input beam forward through both mirrors.  Returns the
  /// output beam (origin on mirror 2), or nullopt if a voltage is out of
  /// range, or the beam misses a mirror plane (parallel to it or behind
  /// the beam) or falls outside its clear radius.
  std::optional<geom::Ray> trace(double v1, double v2) const;

  bool voltage_in_range(double v) const noexcept {
    return v >= -spec_.max_voltage && v <= spec_.max_voltage;
  }

 private:
  GalvoParams params_;
  PreparedGalvo prepared_;
  GalvoSpec spec_;
};

/// DAQ between the controller and the galvo servos: quantizes commanded
/// voltages and contributes most of the 1-2 ms pointing latency (§5.2).
struct Daq {
  double quantization_step = 20.0 / 65536.0;  ///< 16-bit over +/-10 V.
  double conversion_latency_s = 1.5e-3;

  double quantize(double v) const noexcept;
};

/// Servo settle dynamics: the GVS102's quoted 300 us is its *small-angle*
/// latency; large steps take longer (full-scale steps approach
/// milliseconds).  Linear model: settle = small_angle + slope * |step|.
struct ServoDynamics {
  double small_angle_settle_s = 300e-6;
  /// Extra settle per volt of commanded step (GVS102-class: ~60 us/V).
  double settle_per_volt_s = 60e-6;

  double settle_time_s(double step_volts) const noexcept {
    const double magnitude = step_volts < 0.0 ? -step_volts : step_volts;
    return small_angle_settle_s + settle_per_volt_s * magnitude;
  }
};

}  // namespace cyclops::galvo
