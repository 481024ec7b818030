// Mirror reflection of a chief ray — the R(p0, x0, n', q) function from
// §4.1 of the paper: reflects the incoming beam off the mirror plane with
// (possibly rotated) normal n' through point q, moving the beam origin to
// the intersection point on the mirror.
#pragma once

#include <optional>

#include "geom/ray.hpp"

namespace cyclops::geom {

/// Direction-only reflection: d - 2 (d . n) n for unit normal n.
inline Vec3 reflect_dir(const Vec3& dir, const Vec3& unit_normal) {
  return dir - unit_normal * (2.0 * dir.dot(unit_normal));
}

/// Reflects `incoming` off the mirror plane.  Returns the outgoing ray whose
/// origin is the hit point on the mirror, or nullopt if the ray misses the
/// plane: parallel to it, or (with forward_only) hitting it behind the
/// origin.  `unit_normal` is mirror.normal.normalized(), for callers that
/// reflect many rays off one plane.  Inline: the G kernel reflects twice
/// per trace.
inline std::optional<Ray> reflect(const Ray& incoming, const Plane& mirror,
                                  const Vec3& unit_normal, bool forward_only) {
  const auto t = intersect(incoming, mirror, forward_only);
  if (!t) return std::nullopt;
  return Ray{incoming.at(*t), reflect_dir(incoming.dir, unit_normal)};
}

inline std::optional<Ray> reflect(const Ray& incoming, const Plane& mirror,
                                  bool forward_only = true) {
  return reflect(incoming, mirror, mirror.normal.normalized(), forward_only);
}

}  // namespace cyclops::geom
