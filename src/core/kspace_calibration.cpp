#include "core/kspace_calibration.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "galvo/factory.hpp"
#include "geom/ray.hpp"
#include "opt/stage_memo.hpp"

namespace cyclops::core {
namespace {

const geom::Plane kBoardPlane{{0, 0, 0}, {0, 0, 1}};

std::optional<geom::Vec3> board_hit(const std::optional<geom::Ray>& ray) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, kBoardPlane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// The Stage-1 residual's memoized stages of G, each a per-sample table
/// keyed on exactly the packed parameters it reads (pack() order: p0 0-2,
/// x0 3-5, n1 6-8, q1 9-11, r1 12-14, n2 15-17, q2 18-20, r2 21-23,
/// theta1 24).  Only the second bounce and the board hit run in every
/// evaluation.
struct KSpaceStages {
  opt::StageMemo<std::vector<galvo::MirrorAngles>, 1> angles;  // theta1
  // n1, r1, theta1 and n2, r2, theta1
  opt::StageMemo<std::vector<galvo::MirrorNormal>, 7> normals1, normals2;
  // p0, x0, n1, q1, r1, theta1
  opt::StageMemo<std::vector<std::optional<geom::Ray>>, 16> bounce1;
};

}  // namespace

BoardSampleCollector::BoardSampleCollector(
    const galvo::GalvoMirror& physical_galvo, const geom::Pose& k_from_gma,
    const BoardConfig& config, const runtime::Context& ctx)
    // The physical unit, as a geometric model in the board (K) frame.  This
    // stands in for the experimenter's closed visual loop: they can steer
    // the real beam onto a real grid point without knowing any parameters.
    : galvo_(&physical_galvo),
      truth_in_k_(GmaModel(physical_galvo.params()).transformed(k_from_gma)),
      config_(config),
      solver_(GPrimeOptions{}, ctx) {
  // A board with no interior columns has no grid points at all (the
  // one-shot loop's inner `for j` never runs): start done.
  if (config_.cells_y <= 1) state_.i = config_.cells_x;
}

bool BoardSampleCollector::step(util::Rng& rng) {
  if (done()) return false;
  const int i = state_.i;
  const int j = state_.j;
  const double gx = (i - config_.cells_x / 2.0) * config_.cell_size;
  const double gy = (j - config_.cells_y / 2.0) * config_.cell_size;
  // The beam lands within hand-alignment accuracy of the grid point.
  const geom::Vec3 achieved{gx + rng.normal(0.0, config_.alignment_sigma),
                            gy + rng.normal(0.0, config_.alignment_sigma),
                            0.0};
  const auto result =
      solver_.solve(truth_in_k_, achieved, state_.v1, state_.v2);
  const bool usable = result.converged &&
                      galvo_->voltage_in_range(result.v1) &&
                      galvo_->voltage_in_range(result.v2);
  if (usable) {
    state_.v1 = result.v1;
    state_.v2 = result.v2;
    samples_.push_back({gx, gy, state_.v1, state_.v2});
  }
  // Advance the grid cursor in the one-shot loop's (i, j) order.
  if (++state_.j >= config_.cells_y) {
    state_.j = 1;
    ++state_.i;
  }
  return !done();
}

std::vector<BoardSample> collect_board_samples(
    const galvo::GalvoMirror& physical_galvo, const geom::Pose& k_from_gma,
    const BoardConfig& config, util::Rng& rng, const runtime::Context& ctx) {
  BoardSampleCollector collector(physical_galvo, k_from_gma, config, ctx);
  while (collector.step(rng)) {
  }
  return collector.take_samples();
}

double board_error(const GmaModel& model, const BoardSample& sample) {
  const auto hit = board_hit(model.trace(sample.v1, sample.v2));
  if (!hit) return 1.0;  // 1 m penalty for a degenerate trace
  const double dx = hit->x - sample.x;
  const double dy = hit->y - sample.y;
  return std::sqrt(dx * dx + dy * dy);
}

KSpaceFitProblem make_kspace_problem(const std::vector<BoardSample>& samples,
                                     const GmaModel& initial_guess) {
  KSpaceFitProblem problem;
  // The stages are shared by every copy of the function and every worker.
  problem.residuals = [&samples, stages = std::make_shared<KSpaceStages>()](
                          std::span<const double> params,
                          std::vector<double>& residuals) {
    std::array<double, galvo::GalvoParams::kParamCount> p{};
    std::copy(params.begin(), params.end(), p.begin());
    const galvo::PreparedGalvo galvo(galvo::GalvoParams::unpack(p));
    const double theta1 = p[24];
    const auto angles = [&] {
      return stages->angles.get({theta1}, [&] {
        return opt::tabulate(samples.size(), [&](std::size_t s) {
          return galvo::MirrorAngles::at(theta1, samples[s].v1, samples[s].v2);
        });
      });
    };
    // A mirror's rotated normals: its normal is packed at n_at, its axis
    // six doubles later.
    const auto normals = [&](auto& stage, const galvo::PreparedMirror& mirror,
                             std::size_t n_at,
                             galvo::MirrorAngle galvo::MirrorAngles::*m) {
      const auto build = [&] {
        const auto table = angles();
        return opt::tabulate(samples.size(), [&](std::size_t s) {
          return galvo::MirrorNormal(mirror.normal((*table)[s].*m));
        });
      };
      return stage.get({p[n_at], p[n_at + 1], p[n_at + 2], p[n_at + 6],
                        p[n_at + 7], p[n_at + 8], theta1},
                       build);
    };
    const auto n2 =
        normals(stages->normals2, galvo.mirror2, 15, &galvo::MirrorAngles::m2);
    decltype(stages->bounce1)::Key key{};
    std::copy_n(p.begin(), 15, key.begin());
    key[15] = theta1;
    const auto bounce1 = stages->bounce1.get(key, [&] {
      const auto n1 = normals(stages->normals1, galvo.mirror1, 6,
                              &galvo::MirrorAngles::m1);
      return opt::tabulate(samples.size(), [&](std::size_t s) {
        return galvo::first_bounce(galvo, (*n1)[s]);
      });
    });
    residuals.resize(samples.size() * 2);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const auto hit =
          board_hit(galvo::second_bounce(galvo, (*bounce1)[s], (*n2)[s]));
      if (hit) {
        residuals[2 * s] = hit->x - samples[s].x;
        residuals[2 * s + 1] = hit->y - samples[s].y;
      } else {
        residuals[2 * s] = residuals[2 * s + 1] = 1.0;
      }
    }
  };
  const auto packed = initial_guess.params().pack();
  problem.initial.assign(packed.begin(), packed.end());
  return problem;
}

KSpaceFitReport finish_kspace_fit(const std::vector<BoardSample>& samples,
                                  const opt::LevMarResult& fit) {
  std::array<double, galvo::GalvoParams::kParamCount> out{};
  std::copy(fit.params.begin(), fit.params.end(), out.begin());
  KSpaceFitReport report{GmaModel(galvo::GalvoParams::unpack(out)), 0.0, 0.0,
                         fit.iterations, fit.converged};
  for (const auto& s : samples) {
    const double e = board_error(report.model, s);
    report.avg_error_m += e;
    report.max_error_m = std::max(report.max_error_m, e);
  }
  if (!samples.empty()) {
    report.avg_error_m /= static_cast<double>(samples.size());
  }
  return report;
}

KSpaceFitReport fit_kspace_model(const std::vector<BoardSample>& samples,
                                 const GmaModel& initial_guess,
                                 const opt::LevMarOptions& options,
                                 const runtime::Context& ctx) {
  const KSpaceFitProblem problem = make_kspace_problem(samples, initial_guess);
  const auto fit = opt::levenberg_marquardt(problem.residuals, problem.initial,
                                            options, ctx);
  return finish_kspace_fit(samples, fit);
}

GmaModel nominal_kspace_guess(double board_distance) {
  const geom::Pose nominal_mount{geom::Mat3::identity(),
                                 {0.0, 0.0, board_distance}};
  return GmaModel(galvo::nominal_params()).transformed(nominal_mount);
}

}  // namespace cyclops::core
