#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/gma_model.hpp"
#include "galvo/factory.hpp"
#include "galvo/galvo_mirror.hpp"
#include "galvo/gma.hpp"
#include "geom/mat3.hpp"
#include "geom/reflect.hpp"
#include "optics/beam.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cyclops::galvo {
namespace {

GalvoMirror nominal_galvo() { return {nominal_params(), gvs102_spec()}; }

/// The ideal G for one voltage pair, through a freshly prepared kernel.
std::optional<geom::Ray> prepared_trace(const GalvoParams& params, double v1,
                                        double v2) {
  const PreparedGalvo galvo(params);
  return trace_ideal(galvo, galvo.angles(v1, v2));
}

// ---- GalvoParams ----

TEST(GalvoParamsTest, PackUnpackRoundTrip) {
  const GalvoParams p = nominal_params();
  const GalvoParams q = GalvoParams::unpack(p.pack());
  EXPECT_NEAR(geom::distance(p.p0, q.p0), 0.0, 1e-12);
  EXPECT_NEAR(geom::distance(p.q2, q.q2), 0.0, 1e-12);
  EXPECT_NEAR(geom::angle_between(p.n1, q.n1), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.theta1, q.theta1);
}

TEST(GalvoParamsTest, UnpackNormalizesDirections) {
  auto packed = nominal_params().pack();
  packed[3] *= 7.0;  // scale x0
  packed[4] *= 7.0;
  packed[5] *= 7.0;
  const GalvoParams p = GalvoParams::unpack(packed);
  EXPECT_NEAR(p.x0.norm(), 1.0, 1e-12);
}

// ---- nominal geometry ----

TEST(GalvoMirrorTest, ZeroVoltageBoresight) {
  const auto out = nominal_galvo().trace(0.0, 0.0);
  ASSERT_TRUE(out.has_value());
  // Nominal design: output from the local origin along -z.
  EXPECT_NEAR(geom::distance(out->origin, {0, 0, 0}), 0.0, 1e-9);
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}), 0.0, 1e-9);
}

TEST(GalvoMirrorTest, Mirror1ScansX) {
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(1.0, 0.0);
  ASSERT_TRUE(out.has_value());
  // 1 V = 1 deg mirror = 2 deg beam.
  const double expected = util::deg_to_rad(2.0);
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}), expected, 1e-6);
  EXPECT_GT(std::abs(out->dir.x), std::abs(out->dir.y));
}

TEST(GalvoMirrorTest, Mirror2ScansY) {
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(0.0, 1.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, -1}),
              util::deg_to_rad(2.0), 1e-6);
  EXPECT_GT(std::abs(out->dir.y), std::abs(out->dir.x));
}

TEST(GalvoMirrorTest, BeamAngleLinearInVoltage) {
  const GalvoMirror gm = nominal_galvo();
  const auto base = gm.trace(0.0, 0.0);
  std::vector<double> angles;
  for (double v : {0.5, 1.0, 2.0, 4.0}) {
    const auto out = gm.trace(v, 0.0);
    ASSERT_TRUE(out.has_value());
    angles.push_back(geom::angle_between(out->dir, base->dir));
  }
  EXPECT_NEAR(angles[1] / angles[0], 2.0, 1e-3);
  EXPECT_NEAR(angles[2] / angles[1], 2.0, 1e-3);
  EXPECT_NEAR(angles[3] / angles[2], 2.0, 1e-3);
}

TEST(GalvoMirrorTest, OutputOriginMovesWithVoltage) {
  // The distortion effect: p depends on the voltages (the paper's reason
  // for not assuming a constant origin).
  const GalvoMirror gm = nominal_galvo();
  const auto a = gm.trace(0.0, 0.0);
  const auto b = gm.trace(3.0, 3.0);
  ASSERT_TRUE(a && b);
  EXPECT_GT(geom::distance(a->origin, b->origin), 0.5e-3);
}

TEST(GalvoMirrorTest, VoltageOutOfRangeRejected) {
  const GalvoMirror gm = nominal_galvo();
  EXPECT_FALSE(gm.trace(10.5, 0.0).has_value());
  EXPECT_FALSE(gm.trace(0.0, -11.0).has_value());
  EXPECT_TRUE(gm.trace(9.9, 9.9).has_value());
}

TEST(GalvoMirrorTest, ClipsOnMirrorEdge) {
  GalvoSpec tiny = gvs102_spec();
  tiny.mirror_radius = 0.5e-3;  // pathologically small mirror
  const GalvoMirror gm(nominal_params(), tiny);
  // At high deflection the hit point on mirror 2 walks off a 0.5 mm mirror.
  EXPECT_FALSE(gm.trace(8.0, 8.0).has_value());
}

TEST(GalvoMirrorTest, TraceIdealMatchesDeviceWithinAperture) {
  const GalvoMirror gm = nominal_galvo();
  for (double v1 : {-4.0, 0.0, 4.0}) {
    for (double v2 : {-3.0, 0.0, 3.0}) {
      const auto dev = gm.trace(v1, v2);
      const auto ideal = prepared_trace(gm.params(), v1, v2);
      ASSERT_TRUE(dev && ideal);
      EXPECT_NEAR(geom::distance(dev->origin, ideal->origin), 0.0, 1e-12);
      EXPECT_NEAR(geom::angle_between(dev->dir, ideal->dir), 0.0, 1e-12);
    }
  }
}

TEST(GalvoMirrorTest, MirrorPlanesRotateWithVoltage) {
  const PreparedGalvo gm(nominal_params());
  const geom::Plane p0 = gm.mirror1.plane(MirrorAngle::at(0.0));
  const geom::Plane p1 = gm.mirror1.plane(MirrorAngle::at(gm.theta1 * 2.0));
  EXPECT_NEAR(geom::angle_between(p0.normal, p1.normal),
              util::deg_to_rad(2.0), 1e-9);
  // The anchor point q is on the rotation axis, so it does not move.
  EXPECT_NEAR(geom::distance(p0.point, p1.point), 0.0, 1e-12);
}

// ---- DAQ ----

TEST(DaqTest, QuantizesToStep) {
  const Daq daq;
  const double q = daq.quantize(1.23456);
  EXPECT_NEAR(q, 1.23456, daq.quantization_step);
  EXPECT_NEAR(std::fmod(q, daq.quantization_step), 0.0, 1e-9);
}

TEST(DaqTest, QuantizationErrorBounded) {
  const Daq daq;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-10.0, 10.0);
    EXPECT_LE(std::abs(daq.quantize(v) - v), daq.quantization_step / 2 + 1e-12);
  }
}

TEST(DaqTest, SixteenBitStepIsSubMillivolt) {
  const Daq daq;
  EXPECT_LT(daq.quantization_step, 1e-3);
}

// ---- factory ----

TEST(FactoryTest, PerturbationIsSmallButNonzero) {
  util::Rng rng(3);
  const GalvoParams nominal = nominal_params();
  const GalvoParams made = perturbed_params(nominal, {}, rng);
  const double dp = geom::distance(nominal.q2, made.q2);
  EXPECT_GT(dp, 0.0);
  EXPECT_LT(dp, 10e-3);
  const double dn = geom::angle_between(nominal.n2, made.n2);
  EXPECT_GT(dn, 0.0);
  EXPECT_LT(dn, util::deg_to_rad(5.0));
  EXPECT_NE(made.theta1, nominal.theta1);
  EXPECT_NEAR(made.theta1, nominal.theta1, 0.1 * nominal.theta1);
}

TEST(FactoryTest, PerturbedUnitStillTraces) {
  util::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const GalvoMirror gm(perturbed_params(nominal_params(), {}, rng),
                         gvs102_spec());
    EXPECT_TRUE(gm.trace(0.0, 0.0).has_value());
    EXPECT_TRUE(gm.trace(4.0, -4.0).has_value());
  }
}

TEST(FactoryTest, DistinctUnitsDiffer) {
  util::Rng rng(5);
  const GalvoParams a = perturbed_params(nominal_params(), {}, rng);
  const GalvoParams b = perturbed_params(nominal_params(), {}, rng);
  EXPECT_GT(geom::distance(a.p0, b.p0), 0.0);
}

// ---- GMA ----

TEST(GmaTest, MountTransformsOutput) {
  const geom::Pose mount{geom::Mat3::rotation({0, 1, 0}, util::kPi),
                         {1.0, 2.0, 3.0}};
  const GmaPhysical gma(nominal_galvo(), mount);
  const auto out = gma.trace_parent(0.0, 0.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(geom::distance(out->origin, {1, 2, 3}), 0.0, 1e-9);
  // Local -z rotated by pi about y becomes +z.
  EXPECT_NEAR(geom::angle_between(out->dir, {0, 0, 1}), 0.0, 1e-9);
}

TEST(GmaTest, EmitCarriesBeamSpec) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  const auto beam =
      gma.emit(0.0, 0.0, optics::BeamSpec::diverging_for(20e-3, 1.5));
  ASSERT_TRUE(beam.has_value());
  EXPECT_EQ(beam->spec.kind, optics::BeamKind::kDiverging);
  EXPECT_NEAR(beam->envelope_diameter_at(beam->chief.at(1.5)), 20e-3, 1e-3);
}

TEST(GmaTest, Mirror2PlaneContainsBeamOrigin) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  for (double v2 : {-3.0, 0.0, 3.0}) {
    const auto out = gma.trace_parent(1.0, v2);
    const geom::Plane plane = gma.mirror2_plane_parent(v2);
    ASSERT_TRUE(out.has_value());
    EXPECT_NEAR(std::abs(plane.signed_distance(out->origin)), 0.0, 1e-9);
  }
}

TEST(GmaTest, CaptureRayEqualsTraceParent) {
  const GmaPhysical gma(nominal_galvo(), geom::Pose::identity());
  const auto a = gma.trace_parent(2.0, -1.0);
  const auto b = gma.capture_ray(2.0, -1.0);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(geom::distance(a->origin, b->origin), 0.0, 1e-15);
}

// Parameterized coverage sweep: every voltage in the working cone
// produces a valid beam whose deflection matches 2 * theta1 * |v|.
class CoverageSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CoverageSweep, DeflectionMatchesModel) {
  const auto [v1, v2] = GetParam();
  const GalvoMirror gm = nominal_galvo();
  const auto out = gm.trace(v1, v2);
  ASSERT_TRUE(out.has_value());
  const auto base = gm.trace(0.0, 0.0);
  const double angle = geom::angle_between(out->dir, base->dir);
  // Small-angle composition: beam deflection ~ 2*theta1*sqrt(v1^2+v2^2).
  const double expected =
      2.0 * gm.params().theta1 * std::sqrt(v1 * v1 + v2 * v2);
  EXPECT_NEAR(angle, expected, expected * 0.05 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Voltages, CoverageSweep,
    ::testing::Values(std::pair{1.0, 0.0}, std::pair{0.0, 1.0},
                      std::pair{2.0, 2.0}, std::pair{-3.0, 1.0},
                      std::pair{4.0, -4.0}, std::pair{-5.0, -5.0},
                      std::pair{6.0, 2.0}, std::pair{0.5, -0.5}));

// ---- prepared G kernel vs the unprepared composition ----

// Mat3::rotation and trace_ideal exactly as they were before the prepared
// kernel: a Rodrigues matrix rebuilt (sqrt, divisions, trig) for every
// mirror of every trace.  The kernel must reproduce them bit for bit.
geom::Mat3 oracle_rotation(const geom::Vec3& axis, double angle) {
  const double n = axis.norm();
  if (n == 0.0 || angle == 0.0) return geom::Mat3::identity();
  const geom::Vec3 u = axis / n;
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  const double t = 1.0 - c;
  geom::Mat3 r;
  r.m[0][0] = c + u.x * u.x * t;
  r.m[0][1] = u.x * u.y * t - u.z * s;
  r.m[0][2] = u.x * u.z * t + u.y * s;
  r.m[1][0] = u.y * u.x * t + u.z * s;
  r.m[1][1] = c + u.y * u.y * t;
  r.m[1][2] = u.y * u.z * t - u.x * s;
  r.m[2][0] = u.z * u.x * t - u.y * s;
  r.m[2][1] = u.z * u.y * t + u.x * s;
  r.m[2][2] = c + u.z * u.z * t;
  return r;
}

std::optional<geom::Ray> oracle_trace_ideal(const GalvoParams& params,
                                            double v1, double v2) {
  const auto reflect_algebraic =
      [](const geom::Ray& ray,
         const geom::Plane& mirror) -> std::optional<geom::Ray> {
    const auto t = geom::intersect(ray, mirror, /*forward_only=*/false);
    if (!t) return std::nullopt;
    const geom::Vec3 n = mirror.normal.normalized();
    return geom::Ray{ray.at(*t), geom::reflect_dir(ray.dir, n)};
  };
  const geom::Ray input{params.p0, params.x0.normalized()};
  const geom::Mat3 rot1 = oracle_rotation(params.r1, params.theta1 * v1);
  const geom::Plane m1{params.q1, rot1 * params.n1};
  const auto mid = reflect_algebraic(input, m1);
  if (!mid) return std::nullopt;
  const geom::Mat3 rot2 = oracle_rotation(params.r2, params.theta1 * v2);
  const geom::Plane m2{params.q2, rot2 * params.n2};
  return reflect_algebraic(*mid, m2);
}

bool same_bits(const geom::Vec3& a, const geom::Vec3& b) {
  return std::memcmp(&a, &b, sizeof(geom::Vec3)) == 0;
}

void expect_same_trace(const std::optional<geom::Ray>& oracle,
                       const std::optional<geom::Ray>& kernel) {
  ASSERT_EQ(oracle.has_value(), kernel.has_value());
  if (!oracle) return;
  EXPECT_TRUE(same_bits(oracle->origin, kernel->origin))
      << oracle->origin << " vs " << kernel->origin;
  EXPECT_TRUE(same_bits(oracle->dir, kernel->dir))
      << oracle->dir << " vs " << kernel->dir;
}

geom::Vec3 random_vec(util::Rng& rng, double scale) {
  return {rng.uniform(-scale, scale), rng.uniform(-scale, scale),
          rng.uniform(-scale, scale)};
}

/// Half manufactured units, half arbitrary geometry with non-unit
/// directions (the learned model never normalizes them).
GalvoParams random_params(util::Rng& rng, int i) {
  if (i % 2 == 0) return perturbed_params(nominal_params(), {}, rng);
  GalvoParams p;
  p.p0 = random_vec(rng, 0.1);
  p.x0 = random_vec(rng, 2.0);
  p.n1 = random_vec(rng, 2.0);
  p.q1 = random_vec(rng, 0.1);
  p.r1 = random_vec(rng, 2.0);
  p.n2 = random_vec(rng, 2.0);
  p.q2 = random_vec(rng, 0.1);
  p.r2 = random_vec(rng, 2.0);
  p.theta1 = rng.uniform(-0.05, 0.05);
  return p;
}

TEST(PreparedKernelTest, BitIdenticalToUnpreparedTrace) {
  util::Rng rng(2022);
  for (int i = 0; i < 400; ++i) {
    const GalvoParams params = random_params(rng, i);
    const PreparedGalvo prepared(params);
    for (int k = 0; k < 10; ++k) {
      const double v1 = rng.uniform(-10.0, 10.0);
      const double v2 = rng.uniform(-10.0, 10.0);
      const auto oracle = oracle_trace_ideal(params, v1, v2);
      expect_same_trace(oracle, prepared_trace(params, v1, v2));
      expect_same_trace(oracle, trace_ideal(prepared, prepared.angles(v1, v2)));
    }
  }
}

TEST(PreparedKernelTest, IdentityShortcutsMatch) {
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    GalvoParams params = random_params(rng, i);
    const double v = rng.uniform(-10.0, 10.0);
    // v == 0 on either mirror, and on both.
    expect_same_trace(oracle_trace_ideal(params, 0.0, v),
                      prepared_trace(params, 0.0, v));
    expect_same_trace(oracle_trace_ideal(params, v, 0.0),
                      prepared_trace(params, v, 0.0));
    expect_same_trace(oracle_trace_ideal(params, 0.0, 0.0),
                      prepared_trace(params, 0.0, 0.0));
    // theta1 == 0: both rotations are the identity at any voltage.
    GalvoParams still = params;
    still.theta1 = 0.0;
    expect_same_trace(oracle_trace_ideal(still, v, -v),
                      prepared_trace(still, v, -v));
    // A zero rotation axis on either mirror.
    GalvoParams no_axis = params;
    no_axis.r1 = {0.0, 0.0, 0.0};
    expect_same_trace(oracle_trace_ideal(no_axis, v, v),
                      prepared_trace(no_axis, v, v));
    no_axis = params;
    no_axis.r2 = {0.0, 0.0, 0.0};
    expect_same_trace(oracle_trace_ideal(no_axis, v, v),
                      prepared_trace(no_axis, v, v));
  }
  // Negative zeros survive (or not) exactly as the identity matrix
  // product leaves them.  At angle 0 a Rodrigues matrix has signed-zero
  // off-diagonals where the identity has +0: with this axis and normal
  // the x component would come out -0 instead of +0.
  const PreparedMirror mirror({0.0, 0.0, 0.0}, {-0.0, 0.6, -0.8},
                              {1.0, -1.0, 1.0});
  EXPECT_TRUE(same_bits(mirror.normal(MirrorAngle::at(0.0)),
                        oracle_rotation({1.0, -1.0, 1.0}, 0.0) *
                            geom::Vec3{-0.0, 0.6, -0.8}));
  GalvoParams signed_zeros = nominal_params();
  signed_zeros.n1 = {-0.0, signed_zeros.n1.y, signed_zeros.n1.z};
  signed_zeros.n2 = {signed_zeros.n2.x, -0.0, signed_zeros.n2.z};
  expect_same_trace(oracle_trace_ideal(signed_zeros, 0.0, 0.0),
                    prepared_trace(signed_zeros, 0.0, 0.0));
}

TEST(PreparedKernelTest, BeamParallelToMirrorIsNulloptOnBothSides) {
  GalvoParams params = nominal_params();
  // Beam along +x, mirror-1 normal along +y: the beam runs in the plane.
  params.x0 = {1.0, 0.0, 0.0};
  params.n1 = {0.0, 1.0, 0.0};
  const auto oracle = oracle_trace_ideal(params, 0.0, 2.0);
  EXPECT_FALSE(oracle.has_value());
  expect_same_trace(oracle, prepared_trace(params, 0.0, 2.0));

  // Mirror 2 edge-on to the beam mirror 1 reflects (at v1 = 0, with a
  // zero mirror-2 axis so the normal stays put at any v2).
  GalvoParams second = nominal_params();
  second.n2 = geom::any_orthogonal(
      geom::reflect_dir(second.x0.normalized(), second.n1.normalized()));
  second.r2 = {0.0, 0.0, 0.0};
  const auto edge_on = oracle_trace_ideal(second, 0.0, 1.0);
  EXPECT_FALSE(edge_on.has_value());
  expect_same_trace(edge_on, prepared_trace(second, 0.0, 1.0));
}

TEST(PreparedKernelTest, GmaModelMatchesOracle) {
  util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const core::GmaModel model(random_params(rng, i));
    const geom::Vec3 axis = random_vec(rng, 1.0);
    const geom::Pose map{geom::Mat3::rotation(axis, rng.uniform(-3.0, 3.0)),
                         random_vec(rng, 2.0)};
    const core::GmaModel moved = model.transformed(map);
    for (int k = 0; k < 5; ++k) {
      const double v1 = rng.uniform(-10.0, 10.0);
      const double v2 = rng.uniform(-10.0, 10.0);
      expect_same_trace(oracle_trace_ideal(model.params(), v1, v2),
                        model.trace(v1, v2));
      expect_same_trace(oracle_trace_ideal(moved.params(), v1, v2),
                        moved.trace(v1, v2));

      const GalvoParams& p = moved.params();
      const geom::Vec3 oracle_n2 =
          oracle_rotation(p.r2, p.theta1 * v2) * p.n2;
      const geom::Plane plane = moved.mirror2_plane(v2);
      EXPECT_TRUE(same_bits(plane.point, p.q2));
      EXPECT_TRUE(same_bits(plane.normal, oracle_n2));
      // The trace hands back the same mirror-2 normal it reflected off.
      geom::Vec3 traced_n2;
      moved.trace(moved.angles(v1, v2), &traced_n2);
      EXPECT_TRUE(same_bits(traced_n2, oracle_n2));
    }
  }
}

// ---- the plant: prepared kernel + hardware limits vs the per-call path ----

/// Why the per-call plant returned what it did.
enum class PlantOutcome {
  kTraced,
  kOutOfRange,
  kMissedMirror1,
  kClippedMirror1,
  kMissedMirror2,
  kClippedMirror2,
  kCount
};

/// GalvoMirror::trace as it was before it ran on the prepared kernel: a
/// Rodrigues matrix rebuilt for each mirror of every trace, forward-only
/// reflections, and the clip check right after each bounce.
std::optional<geom::Ray> oracle_plant_trace(const GalvoParams& params,
                                            const GalvoSpec& spec, double v1,
                                            double v2, PlantOutcome& outcome) {
  const auto in_range = [&spec](double v) {
    return v >= -spec.max_voltage && v <= spec.max_voltage;
  };
  const auto reflect_forward =
      [](const geom::Ray& ray,
         const geom::Plane& mirror) -> std::optional<geom::Ray> {
    const auto t = geom::intersect(ray, mirror, /*forward_only=*/true);
    if (!t) return std::nullopt;
    const geom::Vec3 n = mirror.normal.normalized();
    return geom::Ray{ray.at(*t), geom::reflect_dir(ray.dir, n)};
  };
  if (!in_range(v1) || !in_range(v2)) {
    outcome = PlantOutcome::kOutOfRange;
    return std::nullopt;
  }
  const geom::Ray input{params.p0, params.x0.normalized()};

  const geom::Mat3 rot1 = oracle_rotation(params.r1, params.theta1 * v1);
  const auto mid = reflect_forward(input, {params.q1, rot1 * params.n1});
  if (!mid) {
    outcome = PlantOutcome::kMissedMirror1;
    return std::nullopt;
  }
  if (geom::distance(mid->origin, params.q1) > spec.mirror_radius) {
    outcome = PlantOutcome::kClippedMirror1;
    return std::nullopt;
  }

  const geom::Mat3 rot2 = oracle_rotation(params.r2, params.theta1 * v2);
  const auto out = reflect_forward(*mid, {params.q2, rot2 * params.n2});
  if (!out) {
    outcome = PlantOutcome::kMissedMirror2;
    return std::nullopt;
  }
  if (geom::distance(out->origin, params.q2) > spec.mirror_radius) {
    outcome = PlantOutcome::kClippedMirror2;
    return std::nullopt;
  }
  outcome = PlantOutcome::kTraced;
  return out;
}

/// Voltage limits up to 12 V and clear radii from a 0.5 mm mirror up.
GalvoSpec random_spec(util::Rng& rng) {
  GalvoSpec spec = gvs102_spec();
  spec.max_voltage = rng.uniform(2.0, 12.0);
  spec.mirror_radius = rng.uniform(0.5e-3, 30e-3);
  return spec;
}

TEST(PlantOracleTest, BitIdenticalToPerCallPlant) {
  util::Rng rng(16);
  int outcomes[static_cast<int>(PlantOutcome::kCount)] = {};
  int parallel_misses = 0;
  int cases = 0;
  for (int i = 0; i < 1000; ++i) {
    GalvoParams params = random_params(rng, i);
    // Every fourth unit carries one degenerate feature: no rotation gain,
    // a zero rotation axis, mirror 2 behind the beam mirror 1 reflects, or
    // an input beam running in mirror 1's plane.
    bool parallel = false;
    switch (i % 16) {
      case 3: params.theta1 = 0.0; break;
      case 4: params.q2 = params.q1 * 2.0 - params.q2; break;
      case 7: params.r1 = {0.0, 0.0, 0.0}; break;
      case 11: params.r2 = {0.0, 0.0, 0.0}; break;
      case 15:
        params.x0 = geom::any_orthogonal(params.n1);
        params.r1 = {0.0, 0.0, 0.0};
        parallel = true;
        break;
      default: break;
    }
    const GalvoSpec spec = random_spec(rng);
    const GalvoMirror gm(params, spec);
    for (int k = 0; k < 5; ++k) {
      double v1 = rng.uniform(-14.0, 14.0);
      double v2 = rng.uniform(-14.0, 14.0);
      if (k == 0) v1 = 0.0;
      if (k == 1) v2 = 0.0;
      if (k == 2) v1 = v2 = 0.0;
      PlantOutcome outcome{};
      const auto oracle = oracle_plant_trace(params, spec, v1, v2, outcome);
      expect_same_trace(oracle, gm.trace(v1, v2));
      ++outcomes[static_cast<int>(outcome)];
      if (parallel && outcome == PlantOutcome::kMissedMirror1) {
        ++parallel_misses;
      }
      ++cases;
    }
  }
  EXPECT_GE(cases, 4000);
  // Every way out of the plant was exercised, and so was a beam parallel to
  // a mirror (the other misses are beams that meet a mirror behind them).
  for (int o = 0; o < static_cast<int>(PlantOutcome::kCount); ++o) {
    EXPECT_GT(outcomes[o], 0) << "outcome " << o;
  }
  EXPECT_GT(parallel_misses, 0);
}

// ---- G's rigid-motion equivariance ----

/// Angle between two unit directions, accurate near zero (acos is not).
double direction_error(const geom::Vec3& a, const geom::Vec3& b) {
  return std::atan2(a.cross(b).norm(), a.dot(b));
}

TEST(GmaEquivarianceTest, TransformedModelTracesTransformedBeam) {
  // G(M p)(v) == M G(p)(v) for any rigid motion M: the Stage-2 mapping
  // parameters rely on it.  Manufactured units keep both bounces
  // well-conditioned, so rounding stays far below 1e-12.
  util::Rng rng(31);
  int traced = 0;
  for (int i = 0; i < 200; ++i) {
    const GalvoParams params = perturbed_params(nominal_params(), {}, rng);
    const core::GmaModel model(params);
    const geom::Pose map{geom::Mat3::rotation(random_vec(rng, 1.0),
                                              rng.uniform(-3.0, 3.0)),
                         random_vec(rng, 3.0)};
    const core::GmaModel moved = model.transformed(map);
    const GalvoMirror plant(params, gvs102_spec());
    for (int k = 0; k < 5; ++k) {
      const double v1 = rng.uniform(-10.0, 10.0);
      const double v2 = rng.uniform(-10.0, 10.0);
      const auto local = model.trace(v1, v2);
      const auto in_parent = moved.trace(v1, v2);
      ASSERT_TRUE(local && in_parent);
      const geom::Ray expected = map.apply(*local);
      EXPECT_LE(geom::distance(in_parent->origin, expected.origin), 1e-12);
      EXPECT_LE(direction_error(in_parent->dir, expected.dir), 1e-12);

      // Inside the clear aperture the plant is the model, bit for bit.
      const auto physical = plant.trace(v1, v2);
      if (physical) {
        expect_same_trace(local, physical);
        ++traced;
      }
    }
  }
  EXPECT_GT(traced, 500);
}

}  // namespace
}  // namespace cyclops::galvo
