#include "core/kspace_calibration.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>

#include "galvo/factory.hpp"
#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

const geom::Plane kBoardPlane{{0, 0, 0}, {0, 0, 1}};

std::optional<geom::Vec3> board_hit(const GmaModel& model,
                                    const galvo::MirrorAngles& angles) {
  const auto ray = model.trace(angles);
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, kBoardPlane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// Every sample's mirror angles at one theta1.  A central-difference
/// Jacobian leaves theta1 untouched in all but one of its 25 columns, so
/// the Stage-1 residual keeps the last table and reuses it while theta1's
/// bits are unchanged.
struct TrigTable {
  std::uint64_t theta1_bits = 0;
  std::vector<galvo::MirrorAngles> angles;
};

/// The last table, shared by every copy of the residual function and
/// every pool worker evaluating it.  Tables are immutable once published;
/// a worker that misses builds its own and publishes it, so a hit and a
/// miss hand the residual the same bits at any pool width.
class TrigCache {
 public:
  std::shared_ptr<const TrigTable> lookup(
      const std::vector<BoardSample>& samples, double theta1) {
    const auto bits = std::bit_cast<std::uint64_t>(theta1);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (last_ && last_->theta1_bits == bits) return last_;
    }
    auto table = std::make_shared<TrigTable>();
    table->theta1_bits = bits;
    table->angles.reserve(samples.size());
    for (const auto& s : samples) {
      table->angles.push_back(galvo::MirrorAngles::at(theta1, s.v1, s.v2));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    last_ = table;
    return table;
  }

 private:
  std::mutex mu_;
  std::shared_ptr<const TrigTable> last_;
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
  const auto hit = board_hit(model, model.angles(sample.v1, sample.v2));
  if (!hit) return 1.0;  // 1 m penalty for a degenerate trace
  const double dx = hit->x - sample.x;
  const double dy = hit->y - sample.y;
  return std::sqrt(dx * dx + dy * dy);
}

KSpaceFitProblem make_kspace_problem(const std::vector<BoardSample>& samples,
                                     const GmaModel& initial_guess) {
  KSpaceFitProblem problem;
  problem.residuals = [&samples, cache = std::make_shared<TrigCache>()](
                          std::span<const double> params,
                          std::vector<double>& residuals) {
    std::array<double, galvo::GalvoParams::kParamCount> packed{};
    std::copy(params.begin(), params.end(), packed.begin());
    const GmaModel model(galvo::GalvoParams::unpack(packed));
    const auto trig = cache->lookup(samples, model.params().theta1);
    residuals.resize(samples.size() * 2);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const auto hit = board_hit(model, trig->angles[s]);
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
