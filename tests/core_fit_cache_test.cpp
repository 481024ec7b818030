// The calibration residuals reuse mirror trig across evaluations: the
// Stage-1 residual keeps a per-sample table keyed on theta1's bits, and
// the Stage-2 residual computes its samples' angles once per problem.
// These tests hold the reuse to the rule that it never changes a bit:
//
//   * a Stage-1 residual evaluated cold equals the same residual after
//     its table was warmed at another theta1, and equals the uncached
//     GmaModel::trace path;
//   * fit_kspace_model and fit_mapping are bit-identical at pool widths
//     1 and 4 (at width 4 the theta1 column's chunk swaps the shared
//     table while the other chunks read it).
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/calibration.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"
#include "core/pointing.hpp"
#include "galvo/galvo_mirror.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

namespace cyclops::core {
namespace {

constexpr std::uint64_t kRigSeed = 42;

/// Reduced-grid board samples against the prototype's truth TX galvo.
std::vector<BoardSample> board_samples(const sim::Prototype& proto) {
  BoardConfig board;
  board.cells_x = 8;
  board.cells_y = 6;
  util::Rng rng(kRigSeed);
  const galvo::GalvoMirror gm(proto.tx_galvo_truth, galvo::gvs102_spec());
  return collect_board_samples(gm, proto.k_from_tx_gma, board, rng);
}

std::vector<double> residuals_at(const KSpaceFitProblem& problem,
                                 const std::vector<double>& params) {
  std::vector<double> r;
  problem.residuals(params, r);
  return r;
}

/// The Stage-1 residual without any table: GmaModel::trace per sample.
std::vector<double> uncached_residuals(const std::vector<BoardSample>& samples,
                                       const std::vector<double>& params) {
  std::array<double, galvo::GalvoParams::kParamCount> packed{};
  std::copy(params.begin(), params.end(), packed.begin());
  const GmaModel model(galvo::GalvoParams::unpack(packed));
  const geom::Plane board{{0, 0, 0}, {0, 0, 1}};
  std::vector<double> r;
  for (const auto& s : samples) {
    const auto ray = model.trace(s.v1, s.v2);
    const auto t =
        ray ? geom::intersect(*ray, board, /*forward_only=*/false) : std::nullopt;
    if (t) {
      const geom::Vec3 hit = ray->at(*t);
      r.push_back(hit.x - s.x);
      r.push_back(hit.y - s.y);
    } else {
      r.push_back(1.0);
      r.push_back(1.0);
    }
  }
  return r;
}

void expect_bitwise_eq(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "residual " << i;
  }
}

void expect_fit_eq(const opt::LevMarResult& a, const opt::LevMarResult& b) {
  expect_bitwise_eq(a.params, b.params);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

opt::LevMarOptions short_options() {
  opt::LevMarOptions options;
  options.max_iterations = 12;
  return options;
}

class FitCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    proto_ = new sim::Prototype(
        sim::make_prototype(kRigSeed, sim::prototype_10g_config()));
  }
  static void TearDownTestSuite() {
    delete proto_;
    proto_ = nullptr;
  }
  static sim::Prototype* proto_;
};

sim::Prototype* FitCacheTest::proto_ = nullptr;

TEST_F(FitCacheTest, Stage1ColdResidualEqualsWarmedAtOtherTheta1) {
  const std::vector<BoardSample> samples = board_samples(*proto_);
  ASSERT_GE(samples.size(), 20u);
  const GmaModel guess = nominal_kspace_guess(proto_->config.board_distance);

  const std::vector<double> a = make_kspace_problem(samples, guess).initial;
  std::vector<double> b = a;
  b[galvo::GalvoParams::kParamCount - 1] *= 1.013;  // another theta1
  b[0] += 1e-4;

  const std::vector<double> cold_a =
      residuals_at(make_kspace_problem(samples, guess), a);
  const std::vector<double> cold_b =
      residuals_at(make_kspace_problem(samples, guess), b);

  // One problem, its table swapped back and forth between the two theta1s.
  const KSpaceFitProblem warm = make_kspace_problem(samples, guess);
  residuals_at(warm, b);
  expect_bitwise_eq(cold_a, residuals_at(warm, a));  // miss after b
  expect_bitwise_eq(cold_a, residuals_at(warm, a));  // hit
  expect_bitwise_eq(cold_b, residuals_at(warm, b));  // miss after a

  // And both equal the trace path with no table at all.
  expect_bitwise_eq(cold_a, uncached_residuals(samples, a));
  expect_bitwise_eq(cold_b, uncached_residuals(samples, b));
}

TEST_F(FitCacheTest, KSpaceFitIsPoolWidthInvariant) {
  const std::vector<BoardSample> samples = board_samples(*proto_);
  const GmaModel guess = nominal_kspace_guess(proto_->config.board_distance);
  const auto fit_at = [&](std::size_t threads) {
    const runtime::Context ctx =
        runtime::Context::isolated({runtime::Context::kDefaultSeed, threads});
    const KSpaceFitProblem problem = make_kspace_problem(samples, guess);
    return opt::levenberg_marquardt(problem.residuals, problem.initial,
                                    short_options(), ctx);
  };
  const opt::LevMarResult one = fit_at(1);
  ASSERT_GT(one.iterations, 2);
  expect_fit_eq(one, fit_at(4));

  // The report adapter, too.
  const runtime::Context ctx1 =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 1});
  const runtime::Context ctx4 =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 4});
  const KSpaceFitReport r1 =
      fit_kspace_model(samples, guess, short_options(), ctx1);
  const KSpaceFitReport r4 =
      fit_kspace_model(samples, guess, short_options(), ctx4);
  const auto p1 = r1.model.params().pack();
  const auto p4 = r4.model.params().pack();
  expect_bitwise_eq({p1.begin(), p1.end()}, {p4.begin(), p4.end()});
  EXPECT_EQ(r1.avg_error_m, r4.avg_error_m);
  EXPECT_EQ(r1.max_error_m, r4.max_error_m);
}

TEST_F(FitCacheTest, MappingFitIsPoolWidthInvariant) {
  // Perfectly aligned tuples from the truth chain: P(psi) is the aligned
  // voltage set for report psi.
  const GmaModel tx = GmaModel(proto_->tx_galvo_truth)
                          .transformed(proto_->k_from_tx_gma);
  const GmaModel rx = GmaModel(proto_->rx_galvo_truth)
                          .transformed(proto_->k_from_rx_gma);
  const PointingSolver solver(tx, rx, proto_->true_map_tx,
                              proto_->true_map_rx, {});
  util::Rng rng(kRigSeed + 1);
  std::vector<AlignedSample> samples;
  for (int i = 0; i < 10; ++i) {
    const geom::Pose psi =
        random_rig_pose(proto_->nominal_rig_pose, 0.15, 0.08, rng);
    const PointingResult aligned = solver.solve(psi, {});
    if (aligned.converged) samples.push_back({aligned.voltages, psi});
  }
  ASSERT_GE(samples.size(), 6u);
  const geom::Pose tx_guess =
      random_pose_error(rng, 0.03, 0.05) * proto_->true_map_tx;
  const geom::Pose rx_guess =
      random_pose_error(rng, 0.03, 0.05) * proto_->true_map_rx;

  const auto fit_at = [&](std::size_t threads) {
    const runtime::Context ctx =
        runtime::Context::isolated({runtime::Context::kDefaultSeed, threads});
    return fit_mapping(tx, rx, samples, tx_guess, rx_guess, short_options(),
                       ctx);
  };
  const MappingFitReport one = fit_at(1);
  const MappingFitReport four = fit_at(4);
  ASSERT_GT(one.optimizer_iterations, 2);
  const auto one_tx = one.map_tx.params(), four_tx = four.map_tx.params();
  const auto one_rx = one.map_rx.params(), four_rx = four.map_rx.params();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(one_tx[i], four_tx[i]) << "tx param " << i;
    EXPECT_EQ(one_rx[i], four_rx[i]) << "rx param " << i;
  }
  EXPECT_EQ(one.avg_coincidence_m, four.avg_coincidence_m);
  EXPECT_EQ(one.max_coincidence_m, four.max_coincidence_m);
  EXPECT_EQ(one.optimizer_iterations, four.optimizer_iterations);
  EXPECT_EQ(one.converged, four.converged);
}

}  // namespace
}  // namespace cyclops::core
