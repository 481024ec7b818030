#include <gtest/gtest.h>

#include <cmath>

#include "core/gma_model.hpp"
#include "core/gprime.hpp"
#include "galvo/factory.hpp"
#include "util/rng.hpp"

namespace cyclops::core {
namespace {

GmaModel nominal_model() { return GmaModel(galvo::nominal_params()); }

GmaModel perturbed_model(std::uint64_t seed) {
  util::Rng rng(seed);
  return GmaModel(
      galvo::perturbed_params(galvo::nominal_params(), {}, rng));
}

TEST(GmaModelTest, TraceMatchesIdeal) {
  const GmaModel model = nominal_model();
  const auto a = model.trace(1.5, -2.0);
  const galvo::PreparedGalvo ideal(galvo::nominal_params());
  const auto b = galvo::trace_ideal(ideal, ideal.angles(1.5, -2.0));
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(geom::distance(a->origin, b->origin), 0.0, 1e-15);
}

TEST(GmaModelTest, TransformedModelTracesTransformedBeam) {
  const GmaModel model = nominal_model();
  const geom::Pose map{geom::Mat3::rotation({0, 1, 0}, 0.8), {1, -2, 3}};
  const GmaModel moved = model.transformed(map);
  const auto local = model.trace(2.0, 1.0);
  const auto world = moved.trace(2.0, 1.0);
  ASSERT_TRUE(local && world);
  EXPECT_NEAR(geom::distance(world->origin, map.apply(local->origin)), 0.0,
              1e-12);
  // angle_between via acos loses precision near 0; 1e-7 rad is numerically
  // zero here.
  EXPECT_NEAR(geom::angle_between(world->dir, map.apply_dir(local->dir)), 0.0,
              1e-7);
}

TEST(GmaModelTest, TransformComposes) {
  const GmaModel model = nominal_model();
  const geom::Pose a{geom::Mat3::rotation({1, 0, 0}, 0.3), {0.1, 0, 0}};
  const geom::Pose b{geom::Mat3::rotation({0, 0, 1}, -0.6), {0, 2, 1}};
  const auto via_two = model.transformed(a).transformed(b).trace(1.0, 1.0);
  const auto via_one = model.transformed(b * a).trace(1.0, 1.0);
  ASSERT_TRUE(via_two && via_one);
  EXPECT_NEAR(geom::distance(via_two->origin, via_one->origin), 0.0, 1e-12);
}

TEST(GmaModelTest, Mirror2PlaneContainsOrigin) {
  const GmaModel model = perturbed_model(3);
  for (double v2 : {-4.0, -1.0, 0.0, 2.0, 5.0}) {
    const auto ray = model.trace(1.0, v2);
    ASSERT_TRUE(ray.has_value());
    EXPECT_NEAR(model.mirror2_plane(v2).signed_distance(ray->origin), 0.0,
                1e-10);
  }
}

TEST(GPrimeTest, HitsTargetOnBoresight) {
  const GmaModel model = nominal_model();
  const geom::Vec3 target{0.0, 0.0, -1.5};
  const GPrimeSolver solver;
  const GPrimeResult r = solver.solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-4);
  EXPECT_NEAR(r.v1, 0.0, 0.05);
  EXPECT_NEAR(r.v2, 0.0, 0.05);
}

TEST(GPrimeTest, ConvergesInTwoToFourIterations) {
  // §4.3: "the above converged in 2-4 iterations".
  const GmaModel model = perturbed_model(7);
  util::Rng rng(11);
  int worst = 0;
  for (int i = 0; i < 200; ++i) {
    const geom::Vec3 target{rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3),
                            rng.uniform(-2.0, -1.2)};
    const GPrimeResult r = GPrimeSolver().solve(model, target);
    ASSERT_TRUE(r.converged);
    worst = std::max(worst, r.iterations);
    EXPECT_LT(r.miss_distance, 1e-3);
  }
  EXPECT_LE(worst, 5);
}

TEST(GPrimeTest, WarmStartConvergesFaster) {
  const GmaModel model = perturbed_model(9);
  const geom::Vec3 target{0.2, 0.1, -1.6};
  const GPrimeResult cold = GPrimeSolver().solve(model, target);
  const GPrimeResult warm =
      GPrimeSolver().solve(model, target, cold.v1, cold.v2);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.iterations, 1);
}

TEST(GPrimeTest, BeamActuallyPassesThroughTarget) {
  const GmaModel model = perturbed_model(13);
  const geom::Vec3 target{-0.25, 0.15, -1.8};
  const GPrimeResult r = GPrimeSolver().solve(model, target);
  ASSERT_TRUE(r.converged);
  const auto ray = model.trace(r.v1, r.v2);
  ASSERT_TRUE(ray.has_value());
  EXPECT_LT(geom::line_point_distance(*ray, target), 0.3e-3);
}

TEST(GPrimeTest, ToleranceControlsPrecision) {
  const GmaModel model = perturbed_model(17);
  const geom::Vec3 target{0.3, -0.2, -1.5};
  GPrimeOptions tight;
  tight.tolerance_volts = 1e-5;
  tight.max_iterations = 30;
  const GPrimeResult r = GPrimeSolver(tight).solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-5);
}

TEST(GPrimeTest, TransformedModelStillInvertible) {
  const geom::Pose map{geom::Mat3::rotation({0, 1, 0}, 2.5), {0.5, 2.0, -1.0}};
  const GmaModel model = perturbed_model(19).transformed(map);
  // Target roughly along the transformed boresight.
  const auto boresight = model.trace(0.0, 0.0);
  ASSERT_TRUE(boresight.has_value());
  const geom::Vec3 target = boresight->at(1.7) + geom::Vec3{0.05, -0.08, 0.02};
  const GPrimeResult r = GPrimeSolver().solve(model, target);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.miss_distance, 1e-3);
}

// Parameterized sweep over target positions (a grid within the coverage
// cone) — the G' iteration must converge everywhere.
class GPrimeTargetSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GPrimeTargetSweep, Converges) {
  const auto [x, y] = GetParam();
  const GmaModel model = perturbed_model(23);
  const GPrimeResult r = GPrimeSolver().solve(model, {x, y, -1.5});
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 6);
  EXPECT_LT(r.miss_distance, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GPrimeTargetSweep,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{0.3, 0.0},
                      std::pair{-0.3, 0.0}, std::pair{0.0, 0.25},
                      std::pair{0.0, -0.25}, std::pair{0.35, 0.25},
                      std::pair{-0.35, -0.25}, std::pair{0.2, -0.3},
                      std::pair{-0.15, 0.3}));

}  // namespace
}  // namespace cyclops::core
