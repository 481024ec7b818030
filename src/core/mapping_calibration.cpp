#include "core/mapping_calibration.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "geom/ray.hpp"
#include "opt/stage_memo.hpp"

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

/// One GMA's half of Lemma 1 for one sample: the beam its VR-space model
/// emits and its mirror-2 plane, the opposite beam's target.
struct LemmaSide {
  std::optional<geom::Ray> ray;
  geom::Plane mirror2;
};

/// The half at precomputed mirror angles (vr.angles(v1, v2)).  The trace
/// hands back its mirror-2 normal, which it has already rotated.
LemmaSide lemma_side(const GmaModel& vr, const galvo::MirrorAngles& angles) {
  LemmaSide side;
  geom::Vec3 n2;
  side.ray = vr.trace(angles, &n2);
  side.mirror2 = {vr.params().q2, n2};
  return side;
}

/// Lemma 1's points from the two halves: each beam's hit on the other's
/// mirror-2 plane.
LemmaPoints lemma_points(const LemmaSide& tx, const LemmaSide& rx) {
  LemmaPoints pts;
  if (!tx.ray || !rx.ray) return pts;
  pts.p_t = tx.ray->origin;
  pts.p_r = rx.ray->origin;

  const auto tau_t = hit_on_plane(tx.ray, rx.mirror2);
  const auto tau_r = hit_on_plane(rx.ray, tx.mirror2);
  if (!tau_t || !tau_r) return pts;
  pts.tau_t = *tau_t;
  pts.tau_r = *tau_r;
  pts.valid = true;
  return pts;
}

}  // namespace

LemmaPoints lemma_points(const GmaModel& tx_vr, const GmaModel& rx_vr,
                         const sim::Voltages& v) {
  return lemma_points(lemma_side(tx_vr, tx_vr.angles(v.tx1, v.tx2)),
                      lemma_side(rx_vr, rx_vr.angles(v.rx1, v.rx2)));
}

MappingFitProblem make_mapping_problem(const GmaModel& tx_kspace,
                                       const GmaModel& rx_kspace,
                                       const std::vector<AlignedSample>& samples,
                                       const geom::Pose& tx_guess,
                                       const geom::Pose& rx_guess) {
  // The mappings move the models rigidly and leave theta1 alone, so every
  // sample's mirror angles are fixed for the whole solve.
  auto tx_angles = opt::tabulate(samples.size(), [&](std::size_t s) {
    return tx_kspace.angles(samples[s].voltages.tx1, samples[s].voltages.tx2);
  });
  auto rx_angles = opt::tabulate(samples.size(), [&](std::size_t s) {
    return rx_kspace.angles(samples[s].voltages.rx1, samples[s].voltages.rx2);
  });
  // Each map's half of Lemma 1, memoized on that map's 6 parameters (and
  // shared by every copy of the function and every pool worker): a TX
  // Jacobian column reuses the RX half, and an RX column the TX half.
  using SideMemo = opt::StageMemo<std::vector<LemmaSide>, 6>;
  MappingFitProblem problem;
  problem.residuals = [&tx_kspace, &rx_kspace, &samples,
                       tx_angles = std::move(tx_angles),
                       rx_angles = std::move(rx_angles),
                       tx_memo = std::make_shared<SideMemo>(),
                       rx_memo = std::make_shared<SideMemo>()](
                          std::span<const double> params,
                          std::vector<double>& residuals) {
    SideMemo::Key tx_key{}, rx_key{};
    std::copy_n(params.begin(), 6, tx_key.begin());
    std::copy_n(params.begin() + 6, 6, rx_key.begin());
    const auto tx = tx_memo->get(tx_key, [&] {
      const GmaModel tx_vr =
          tx_kspace.transformed(geom::Pose::from_params(tx_key));
      return opt::tabulate(samples.size(), [&](std::size_t s) {
        return lemma_side(tx_vr, tx_angles[s]);
      });
    });
    const auto rx = rx_memo->get(rx_key, [&] {
      const geom::Pose map_rx = geom::Pose::from_params(rx_key);
      return opt::tabulate(samples.size(), [&](std::size_t s) {
        return lemma_side(rx_kspace.transformed(samples[s].psi * map_rx),
                          rx_angles[s]);
      });
    });
    residuals.resize(samples.size() * 6);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const LemmaPoints pts = lemma_points((*tx)[s], (*rx)[s]);
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
