// The calibration residuals memoize their stages (opt::StageMemo): the
// Stage-1 residual keeps per-sample tables of mirror angles, both mirrors'
// rotated normals and the first bounce, each keyed on the bits of the
// parameters it reads, and the Stage-2 residual keeps each map's half of
// Lemma 1 keyed on that map's 6 parameters.  These tests hold the memo to
// the rule that it never changes a bit:
//
//   * a central-difference sweep of each residual (every column, +h and
//     -h, in forward order, in reverse order, and from 4 pool workers at
//     once) memcmp-equals the uncached oracle (tests/oracle/);
//   * a Stage-1 residual evaluated cold equals the same residual after
//     its tables were warmed at another theta1;
//   * fit_kspace_model and fit_mapping are bit-identical at pool widths
//     1 and 4 (at width 4 the chunks publish perturbed tables while the
//     other chunks read the base point's);
//   * whole installs hash to the values pinned before the memo went in.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/calibration.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"
#include "core/pointing.hpp"
#include "galvo/galvo_mirror.hpp"
#include "opt/levmar.hpp"
#include "oracle/fit_residuals.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// The Stage-1 residual without any table: the oracle's body.
std::vector<double> uncached_residuals(const std::vector<BoardSample>& samples,
                                       const std::vector<double>& params) {
  std::vector<double> r;
  oracle::kspace_residuals(samples, params, r);
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

/// memcmp equality of two residual vectors.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

/// The points numeric_jacobian evaluates around `base`: entry 2j is
/// column j at +h, entry 2j + 1 column j at -h.
std::vector<std::vector<double>> sweep_points(const std::vector<double>& base) {
  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  std::vector<std::vector<double>> points;
  for (std::size_t j = 0; j < base.size(); ++j) {
    const double h = epsilon * std::max(1.0, std::abs(base[j]));
    for (const double step : {h, -h}) {
      std::vector<double> p = base;
      p[j] = base[j] + step;
      points.push_back(std::move(p));
    }
  }
  return points;
}

/// A central-difference sweep of the residuals `make_fn()` returns, each
/// evaluation memcmp-equal to `oracle` at the same point: the base point
/// then every column at +h and -h in forward order, the same in reverse
/// order through the tables the forward pass left behind, every point
/// from 4 pool workers at once on a cold memo, and the Jacobian
/// numeric_jacobian assembles at pool width 4.
template <class MakeFn>
void expect_sweep_matches_oracle(const MakeFn& make_fn,
                                 const opt::ResidualFn& oracle,
                                 const std::vector<double>& base) {
  const std::vector<std::vector<double>> points = sweep_points(base);
  std::vector<double> want_base;
  oracle(base, want_base);
  std::vector<std::vector<double>> want(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) oracle(points[i], want[i]);

  const opt::ResidualFn warm = make_fn();
  std::vector<double> got;
  warm(base, got);
  expect_same_bits(got, want_base, "base point");
  for (std::size_t i = 0; i < points.size(); ++i) {
    warm(points[i], got);
    expect_same_bits(got, want[i], "forward point " + std::to_string(i));
  }
  for (std::size_t i = points.size(); i-- > 0;) {
    warm(points[i], got);
    expect_same_bits(got, want[i], "reverse point " + std::to_string(i));
  }

  util::ThreadPool pool(4);
  const opt::ResidualFn cold = make_fn();
  std::vector<std::vector<double>> concurrent(points.size());
  pool.run_chunked(points.size(), points.size(),
                   [&](std::size_t chunk, std::size_t, std::size_t) {
                     cold(points[chunk], concurrent[chunk]);
                   });
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_bits(concurrent[i], want[i],
                     "pool point " + std::to_string(i));
  }

  const double epsilon = opt::LevMarOptions{}.jacobian_epsilon;
  opt::Matrix jac, want_jac;
  opt::JacobianScratch scratch, want_scratch;
  opt::numeric_jacobian(make_fn(), base, epsilon, want_base.size(), jac,
                        scratch, pool);
  opt::numeric_jacobian(oracle, base, epsilon, want_base.size(), want_jac,
                        want_scratch, util::ThreadPool::serial());
  for (std::size_t j = 0; j < base.size(); ++j) {
    std::vector<double> col(want_base.size()), want_col(want_base.size());
    for (std::size_t i = 0; i < want_base.size(); ++i) {
      col[i] = jac(i, j);
      want_col[i] = want_jac(i, j);
    }
    expect_same_bits(col, want_col, "jacobian column " + std::to_string(j));
  }
}

/// Stage-2 inputs: the truth chain's K-space models, perfectly aligned
/// tuples (P(psi) is the aligned voltage set for report psi) and
/// manual-measurement guesses around the true maps.
struct MappingSet {
  GmaModel tx;
  GmaModel rx;
  std::vector<AlignedSample> samples;
  geom::Pose tx_guess;
  geom::Pose rx_guess;
};

MappingSet mapping_set(const sim::Prototype& proto) {
  MappingSet set{
      GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma),
      GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma),
      {},
      {},
      {}};
  const PointingSolver solver(set.tx, set.rx, proto.true_map_tx,
                              proto.true_map_rx, {});
  util::Rng rng(kRigSeed + 1);
  for (int i = 0; i < 10; ++i) {
    const geom::Pose psi =
        random_rig_pose(proto.nominal_rig_pose, 0.15, 0.08, rng);
    const PointingResult aligned = solver.solve(psi, {});
    if (aligned.converged) set.samples.push_back({aligned.voltages, psi});
  }
  set.tx_guess = random_pose_error(rng, 0.03, 0.05) * proto.true_map_tx;
  set.rx_guess = random_pose_error(rng, 0.03, 0.05) * proto.true_map_rx;
  return set;
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
  const MappingSet set = mapping_set(*proto_);
  const GmaModel& tx = set.tx;
  const GmaModel& rx = set.rx;
  const std::vector<AlignedSample>& samples = set.samples;
  ASSERT_GE(samples.size(), 6u);
  const geom::Pose& tx_guess = set.tx_guess;
  const geom::Pose& rx_guess = set.rx_guess;

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

TEST_F(FitCacheTest, Stage1SweepMatchesUncachedOracle) {
  const std::vector<BoardSample> samples = board_samples(*proto_);
  ASSERT_GE(samples.size(), 20u);
  const GmaModel guess = nominal_kspace_guess(proto_->config.board_distance);
  // A base point off the CAD nominal in every parameter.
  std::vector<double> base = make_kspace_problem(samples, guess).initial;
  for (std::size_t j = 0; j < base.size(); ++j) {
    base[j] += 1e-4 * std::sin(1.0 + static_cast<double>(j));
  }
  expect_sweep_matches_oracle(
      [&] { return make_kspace_problem(samples, guess).residuals; },
      [&](std::span<const double> params, std::vector<double>& r) {
        oracle::kspace_residuals(samples, params, r);
      },
      base);
}

TEST_F(FitCacheTest, Stage2SweepMatchesUncachedOracle) {
  const MappingSet set = mapping_set(*proto_);
  ASSERT_GE(set.samples.size(), 6u);
  const auto make = [&] {
    return make_mapping_problem(set.tx, set.rx, set.samples, set.tx_guess,
                                set.rx_guess);
  };
  expect_sweep_matches_oracle(
      [&] { return make().residuals; },
      [&](std::span<const double> params, std::vector<double>& r) {
        oracle::mapping_residuals(set.tx, set.rx, set.samples, params, r);
      },
      make().initial);
}

/// FNV-1a over the bits of every double, int and bool a
/// CalibrationResult carries: both Stage-1 reports, the mapping report
/// and every Stage-2 sample.
class ResultHash {
 public:
  void add_u64(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add(const geom::Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  void add(const geom::Pose& pose) {
    for (const auto& row : pose.rotation().m) {
      for (double v : row) add(v);
    }
    add(pose.translation());
  }
  void add(const KSpaceFitReport& r) {
    for (double v : r.model.params().pack()) add(v);
    add(r.avg_error_m);
    add(r.max_error_m);
    add_u64(static_cast<std::uint64_t>(r.optimizer_iterations));
    add_u64(r.converged ? 1u : 0u);
  }
  void add(const CalibrationResult& c) {
    add(c.tx_stage1);
    add(c.rx_stage1);
    add(c.mapping.map_tx);
    add(c.mapping.map_rx);
    add(c.mapping.avg_coincidence_m);
    add(c.mapping.max_coincidence_m);
    add_u64(static_cast<std::uint64_t>(c.mapping.optimizer_iterations));
    add_u64(c.mapping.converged ? 1u : 0u);
    add_u64(c.stage2_samples.size());
    for (const AlignedSample& s : c.stage2_samples) {
      add(s.voltages.tx1);
      add(s.voltages.tx2);
      add(s.voltages.rx1);
      add(s.voltages.rx2);
      add(s.psi);
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t calibration_hash(bool is_25g, bool blind) {
  constexpr std::uint64_t kSeed = 2022;
  sim::Prototype proto = sim::make_prototype(
      kSeed, is_25g ? sim::prototype_25g_config() : sim::prototype_10g_config());
  CalibrationConfig config;
  config.blind_stage2 = blind;
  util::Rng rng(kSeed ^ 0x9e3779b97f4a7c15ULL);
  const runtime::Context ctx =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 2});
  ResultHash hash;
  hash.add(calibrate_prototype(proto, config, rng, ctx));
  return hash.value();
}

// Pinned before the residuals' stage memo went in: every install's
// result, bit for bit, at one prototype seed.
TEST(CalibrationBitsTest, InstallResultBitsArePinned) {
  struct Case {
    bool is_25g;
    bool blind;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {false, false, 6818426864115482660ull},
      {false, true, 1506141579679294225ull},
      {true, false, 6017936990999615497ull},
      {true, true, 1542806262871223486ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(calibration_hash(c.is_25g, c.blind), c.expected)
        << (c.is_25g ? "25G" : "10G") << (c.blind ? " blind" : " guided");
  }
}

}  // namespace
}  // namespace cyclops::core
