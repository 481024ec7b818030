#include "oracle/fit_residuals.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "geom/ray.hpp"

namespace cyclops::oracle {
namespace {

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// Lemma 1 for one sample, both traces and both plane hits in one body.
core::LemmaPoints lemma_points(const core::GmaModel& tx_vr,
                               const core::GmaModel& rx_vr,
                               const galvo::MirrorAngles& tx,
                               const galvo::MirrorAngles& rx) {
  core::LemmaPoints pts;
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

}  // namespace

void kspace_residuals(const std::vector<core::BoardSample>& samples,
                      std::span<const double> params,
                      std::vector<double>& residuals) {
  std::array<double, galvo::GalvoParams::kParamCount> packed{};
  std::copy(params.begin(), params.end(), packed.begin());
  const core::GmaModel model(galvo::GalvoParams::unpack(packed));
  const geom::Plane board{{0, 0, 0}, {0, 0, 1}};
  residuals.resize(samples.size() * 2);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto hit =
        hit_on_plane(model.trace(samples[s].v1, samples[s].v2), board);
    if (hit) {
      residuals[2 * s] = hit->x - samples[s].x;
      residuals[2 * s + 1] = hit->y - samples[s].y;
    } else {
      residuals[2 * s] = residuals[2 * s + 1] = 1.0;
    }
  }
}

void mapping_residuals(const core::GmaModel& tx_kspace,
                       const core::GmaModel& rx_kspace,
                       const std::vector<core::AlignedSample>& samples,
                       std::span<const double> params,
                       std::vector<double>& residuals) {
  std::array<double, 6> a{}, b{};
  std::copy(params.begin(), params.begin() + 6, a.begin());
  std::copy(params.begin() + 6, params.begin() + 12, b.begin());
  const geom::Pose map_tx = geom::Pose::from_params(a);
  const geom::Pose map_rx = geom::Pose::from_params(b);
  const core::GmaModel tx_vr = tx_kspace.transformed(map_tx);
  residuals.resize(samples.size() * 6);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const sim::Voltages& v = samples[s].voltages;
    const core::GmaModel rx_vr = rx_kspace.transformed(samples[s].psi * map_rx);
    const core::LemmaPoints pts =
        lemma_points(tx_vr, rx_vr, tx_kspace.angles(v.tx1, v.tx2),
                     rx_kspace.angles(v.rx1, v.rx2));
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
}

}  // namespace cyclops::oracle
