#include "core/mapping_calibration.hpp"

#include <algorithm>
#include <cmath>

#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

std::array<double, 12> pack_maps(const geom::Pose& tx, const geom::Pose& rx) {
  const auto a = tx.params();
  const auto b = rx.params();
  std::array<double, 12> out{};
  std::copy(a.begin(), a.end(), out.begin());
  std::copy(b.begin(), b.end(), out.begin() + 6);
  return out;
}

std::pair<geom::Pose, geom::Pose> unpack_maps(std::span<const double> v) {
  std::array<double, 6> a{}, b{};
  std::copy(v.begin(), v.begin() + 6, a.begin());
  std::copy(v.begin() + 6, v.begin() + 12, b.begin());
  return {geom::Pose::from_params(a), geom::Pose::from_params(b)};
}

}  // namespace

LemmaPoints lemma_points(const GmaModel& tx_vr, const GmaModel& rx_vr,
                         const sim::Voltages& v) {
  return lemma_points(tx_vr, rx_vr, tx_vr.angles(v.tx1, v.tx2),
                      rx_vr.angles(v.rx1, v.rx2));
}

LemmaPoints lemma_points(const GmaModel& tx_vr, const GmaModel& rx_vr,
                         const galvo::MirrorAngles& tx,
                         const galvo::MirrorAngles& rx) {
  LemmaPoints pts;
  // Each trace hands back its mirror-2 normal: the opposite beam's target
  // plane, which the trace has already rotated.
  geom::Vec3 tx_n2, rx_n2;
  const auto ray_t = tx_vr.trace(tx, &tx_n2);
  const auto ray_r = rx_vr.trace(rx, &rx_n2);
  if (!ray_t || !ray_r) return pts;
  pts.p_t = ray_t->origin;
  pts.p_r = ray_r->origin;

  const auto tau_t = hit_on_plane(ray_t, {rx_vr.params().q2, rx_n2});
  const auto tau_r = hit_on_plane(ray_r, {tx_vr.params().q2, tx_n2});
  if (!tau_t || !tau_r) return pts;
  pts.tau_t = *tau_t;
  pts.tau_r = *tau_r;
  pts.valid = true;
  return pts;
}

MappingFitProblem make_mapping_problem(const GmaModel& tx_kspace,
                                       const GmaModel& rx_kspace,
                                       const std::vector<AlignedSample>& samples,
                                       const geom::Pose& tx_guess,
                                       const geom::Pose& rx_guess) {
  // The mappings move the models rigidly and leave theta1 alone, so every
  // sample's mirror angles are fixed for the whole solve.
  std::vector<galvo::MirrorAngles> tx_angles, rx_angles;
  tx_angles.reserve(samples.size());
  rx_angles.reserve(samples.size());
  for (const auto& sample : samples) {
    const sim::Voltages& v = sample.voltages;
    tx_angles.push_back(tx_kspace.angles(v.tx1, v.tx2));
    rx_angles.push_back(rx_kspace.angles(v.rx1, v.rx2));
  }
  MappingFitProblem problem;
  problem.residuals = [&tx_kspace, &rx_kspace, &samples,
                       tx_angles = std::move(tx_angles),
                       rx_angles = std::move(rx_angles)](
                          std::span<const double> params,
                          std::vector<double>& residuals) {
    const auto [map_tx, map_rx] = unpack_maps(params);
    const GmaModel tx_vr = tx_kspace.transformed(map_tx);
    residuals.resize(samples.size() * 6);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const GmaModel rx_vr =
          rx_kspace.transformed(samples[s].psi * map_rx);
      const LemmaPoints pts =
          lemma_points(tx_vr, rx_vr, tx_angles[s], rx_angles[s]);
      double* r = residuals.data() + 6 * s;
      if (pts.valid) {
        const geom::Vec3 d1 = pts.tau_r - pts.p_t;
        const geom::Vec3 d2 = pts.tau_t - pts.p_r;
        r[0] = d1.x; r[1] = d1.y; r[2] = d1.z;
        r[3] = d2.x; r[4] = d2.y; r[5] = d2.z;
      } else {
        std::fill(r, r + 6, 1.0);  // 1 m penalty
      }
    }
  };
  const auto packed = pack_maps(tx_guess, rx_guess);
  problem.initial.assign(packed.begin(), packed.end());
  return problem;
}

MappingFitReport finish_mapping_fit(const GmaModel& tx_kspace,
                                    const GmaModel& rx_kspace,
                                    const std::vector<AlignedSample>& samples,
                                    const opt::LevMarResult& fit) {
  const auto [map_tx, map_rx] = unpack_maps(fit.params);
  MappingFitReport report{map_tx, map_rx, 0.0, 0.0, fit.iterations,
                          fit.converged};

  const GmaModel tx_vr = tx_kspace.transformed(map_tx);
  for (const auto& sample : samples) {
    const GmaModel rx_vr = rx_kspace.transformed(sample.psi * map_rx);
    const LemmaPoints pts = lemma_points(tx_vr, rx_vr, sample.voltages);
    const double e = pts.valid ? pts.coincidence_error() : 2.0;
    report.avg_coincidence_m += e;
    report.max_coincidence_m = std::max(report.max_coincidence_m, e);
  }
  if (!samples.empty()) {
    report.avg_coincidence_m /= static_cast<double>(samples.size());
  }
  return report;
}

MappingFitReport fit_mapping(const GmaModel& tx_kspace,
                             const GmaModel& rx_kspace,
                             const std::vector<AlignedSample>& samples,
                             const geom::Pose& tx_guess,
                             const geom::Pose& rx_guess,
                             const opt::LevMarOptions& options,
                             const runtime::Context& ctx) {
  const MappingFitProblem problem =
      make_mapping_problem(tx_kspace, rx_kspace, samples, tx_guess, rx_guess);
  const auto fit = opt::levenberg_marquardt(problem.residuals, problem.initial,
                                            options, ctx);
  return finish_mapping_fit(tx_kspace, rx_kspace, samples, fit);
}

}  // namespace cyclops::core
