#include "core/gma_model.hpp"

namespace cyclops::core {

std::optional<geom::Ray> GmaModel::trace(const galvo::MirrorAngles& angles,
                                         geom::Vec3* mirror2_normal) const {
  const geom::Vec3 n2 = prepared_.mirror2.normal(angles.m2);
  if (mirror2_normal != nullptr) *mirror2_normal = n2;
  auto ray =
      galvo::trace_ideal(prepared_, prepared_.mirror1.normal(angles.m1), n2);
  if (ray && frozen_origin_) ray->origin = *frozen_origin_;
  return ray;
}

GmaModel GmaModel::with_frozen_origin() const {
  GmaModel frozen = *this;
  if (const auto at_zero = galvo::trace_ideal(prepared_, angles(0.0, 0.0))) {
    frozen.frozen_origin_ = at_zero->origin;
  }
  return frozen;
}

GmaModel GmaModel::transformed(const geom::Pose& map) const {
  galvo::GalvoParams p = params_;
  p.p0 = map.apply(params_.p0);
  p.x0 = map.apply_dir(params_.x0);
  p.q1 = map.apply(params_.q1);
  p.n1 = map.apply_dir(params_.n1);
  p.r1 = map.apply_dir(params_.r1);
  p.q2 = map.apply(params_.q2);
  p.n2 = map.apply_dir(params_.n2);
  p.r2 = map.apply_dir(params_.r2);
  GmaModel out(p);
  if (frozen_origin_) out.frozen_origin_ = map.apply(*frozen_origin_);
  return out;
}

}  // namespace cyclops::core
