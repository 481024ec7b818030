#include "galvo/galvo_mirror.hpp"

#include <cmath>

#include "geom/mat3.hpp"
#include "geom/reflect.hpp"
#include "util/units.hpp"

namespace cyclops::galvo {

std::array<double, GalvoParams::kParamCount> GalvoParams::pack() const {
  return {p0.x, p0.y, p0.z, x0.x, x0.y, x0.z, n1.x, n1.y, n1.z,
          q1.x, q1.y, q1.z, r1.x, r1.y, r1.z, n2.x, n2.y, n2.z,
          q2.x, q2.y, q2.z, r2.x, r2.y, r2.z, theta1};
}

GalvoParams GalvoParams::unpack(
    const std::array<double, kParamCount>& v) {
  GalvoParams p;
  p.p0 = {v[0], v[1], v[2]};
  p.x0 = geom::Vec3{v[3], v[4], v[5]}.normalized();
  p.n1 = geom::Vec3{v[6], v[7], v[8]}.normalized();
  p.q1 = {v[9], v[10], v[11]};
  p.r1 = geom::Vec3{v[12], v[13], v[14]}.normalized();
  p.n2 = geom::Vec3{v[15], v[16], v[17]}.normalized();
  p.q2 = {v[18], v[19], v[20]};
  p.r2 = geom::Vec3{v[21], v[22], v[23]}.normalized();
  p.theta1 = v[24];
  return p;
}

GalvoSpec gvs102_spec() { return {}; }

GalvoMirror::GalvoMirror(GalvoParams params, GalvoSpec spec)
    : params_(std::move(params)), spec_(spec) {}

geom::Plane GalvoMirror::mirror1_plane(double v1) const {
  const geom::Mat3 rot = geom::Mat3::rotation(params_.r1, params_.theta1 * v1);
  return {params_.q1, rot * params_.n1};
}

geom::Plane GalvoMirror::mirror2_plane(double v2) const {
  const geom::Mat3 rot = geom::Mat3::rotation(params_.r2, params_.theta1 * v2);
  return {params_.q2, rot * params_.n2};
}

PreparedMirror::PreparedMirror(const geom::Vec3& point,
                               const geom::Vec3& normal,
                               const geom::Vec3& axis)
    : q(point), n(normal) {
  // Mat3::rotation's per-axis work: the norm, the division and the
  // pairwise products (u.y * u.x == u.x * u.y exactly, so one product
  // serves both off-diagonal entries).
  const double len = axis.norm();
  zero_axis = len == 0.0;
  if (zero_axis) return;
  u = axis / len;
  uxx = u.x * u.x;
  uyy = u.y * u.y;
  uzz = u.z * u.z;
  uxy = u.x * u.y;
  uxz = u.x * u.z;
  uyz = u.y * u.z;
}

PreparedGalvo::PreparedGalvo(const GalvoParams& params)
    : p0(params.p0),
      x0(params.x0.normalized()),
      mirror1(params.q1, params.n1, params.r1),
      mirror2(params.q2, params.n2, params.r2),
      theta1(params.theta1) {}

std::optional<geom::Ray> trace_ideal(const GalvoParams& params, double v1,
                                     double v2) {
  const PreparedGalvo galvo(params);
  return trace_ideal(galvo, galvo.angles(v1, v2));
}

std::optional<geom::Ray> GalvoMirror::trace(double v1, double v2) const {
  if (!voltage_in_range(v1) || !voltage_in_range(v2)) return std::nullopt;
  const geom::Ray input{params_.p0, params_.x0.normalized()};

  const geom::Plane m1 = mirror1_plane(v1);
  const auto mid = geom::reflect(input, m1);
  if (!mid) return std::nullopt;
  if (geom::distance(mid->origin, params_.q1) > spec_.mirror_radius) {
    return std::nullopt;  // clipped by mirror 1
  }

  const geom::Plane m2 = mirror2_plane(v2);
  const auto out = geom::reflect(*mid, m2);
  if (!out) return std::nullopt;
  if (geom::distance(out->origin, params_.q2) > spec_.mirror_radius) {
    return std::nullopt;  // clipped by mirror 2
  }
  return out;
}

double Daq::quantize(double v) const noexcept {
  return std::round(v / quantization_step) * quantization_step;
}

}  // namespace cyclops::galvo
