#include "galvo/galvo_mirror.hpp"

#include <cmath>

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

PreparedGalvo::PreparedGalvo(const GalvoParams& params)
    : p0(params.p0),
      x0(params.x0.normalized()),
      mirror1(params.q1, params.n1, params.r1),
      mirror2(params.q2, params.n2, params.r2),
      theta1(params.theta1) {}

GalvoMirror::GalvoMirror(GalvoParams params, GalvoSpec spec)
    : params_(std::move(params)), prepared_(params_), spec_(spec) {}

std::optional<geom::Ray> GalvoMirror::trace(double v1, double v2) const {
  if (!voltage_in_range(v1) || !voltage_in_range(v2)) return std::nullopt;
  const MirrorAngles angles = prepared_.angles(v1, v2);
  const PreparedMirror& m1 = prepared_.mirror1;
  const PreparedMirror& m2 = prepared_.mirror2;
  const auto mid = geom::reflect({prepared_.p0, prepared_.x0},
                                 m1.plane(angles.m1), /*forward_only=*/true);
  if (!mid || geom::distance(mid->origin, m1.q) > spec_.mirror_radius) {
    return std::nullopt;  // misses or is clipped by mirror 1
  }
  const auto out =
      geom::reflect(*mid, m2.plane(angles.m2), /*forward_only=*/true);
  if (!out || geom::distance(out->origin, m2.q) > spec_.mirror_radius) {
    return std::nullopt;  // misses or is clipped by mirror 2
  }
  return out;
}

double Daq::quantize(double v) const noexcept {
  return std::round(v / quantization_step) * quantization_step;
}

}  // namespace cyclops::galvo
