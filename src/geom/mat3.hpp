// 3x3 matrices and axis-angle (Rodrigues) rotations.
#pragma once

#include <cmath>

#include "geom/vec3.hpp"

namespace cyclops::geom {

/// Row-major 3x3 matrix.
struct Mat3 {
  double m[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};

  static Mat3 identity() { return {}; }
  static Mat3 zero();

  /// Rotation by `angle` radians about the (unit or non-unit) axis, via the
  /// Rodrigues formula.  This is R(r, theta) from the paper's GM model;
  /// callers that reuse an axis prepare it once (PreparedRotation).
  static Mat3 rotation(const Vec3& axis, double angle);

  /// Rotation taking unit vector `from` to unit vector `to`.
  static Mat3 rotation_between(const Vec3& from, const Vec3& to);

  Vec3 operator*(const Vec3& v) const;
  Mat3 operator*(const Mat3& o) const;
  Mat3 transposed() const;

  /// Trace of the matrix.
  double trace() const { return m[0][0] + m[1][1] + m[2][2]; }

  Vec3 row(int i) const { return {m[i][0], m[i][1], m[i][2]}; }
  Vec3 col(int j) const { return {m[0][j], m[1][j], m[2][j]}; }
};

inline Vec3 Mat3::operator*(const Vec3& v) const {
  return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
          m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
          m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
}

/// A rotation axis prepared for many angles: the unit axis and its six
/// pairwise products, the angle-independent half of the Rodrigues formula.
/// The one place rotation-matrix entries are computed — Mat3::rotation
/// prepares an axis per call; callers that rotate about a fixed axis (a
/// galvo mirror, a head-yaw axis) prepare it once.
struct PreparedRotation {
  Vec3 u;  ///< Unit axis.
  double uxx = 0.0, uyy = 0.0, uzz = 0.0;
  double uxy = 0.0, uxz = 0.0, uyz = 0.0;
  bool zero_axis = false;  ///< |axis| == 0: every rotation is the identity.

  explicit PreparedRotation(const Vec3& axis);

  /// R(axis, angle) from the angle's precomputed cosine and sine.  A zero
  /// axis or a zero angle gives the identity matrix, which callers still
  /// multiply by: that product turns a -0 component into +0.
  Mat3 matrix(double angle, double cos, double sin) const;
  Mat3 matrix(double angle) const {
    return matrix(angle, std::cos(angle), std::sin(angle));
  }
};

// Inline: a galvo mirror rotates its normal through here on every trace.

inline PreparedRotation::PreparedRotation(const Vec3& axis) {
  const double len = axis.norm();
  zero_axis = len == 0.0;
  if (zero_axis) return;
  u = axis / len;
  // u.y * u.x == u.x * u.y exactly, so one product serves both
  // off-diagonal entries.
  uxx = u.x * u.x;
  uyy = u.y * u.y;
  uzz = u.z * u.z;
  uxy = u.x * u.y;
  uxz = u.x * u.z;
  uyz = u.y * u.z;
}

inline Mat3 PreparedRotation::matrix(double angle, double c, double s) const {
  if (zero_axis || angle == 0.0) return Mat3::identity();
  const double t = 1.0 - c;
  Mat3 r;
  r.m[0][0] = c + uxx * t;
  r.m[0][1] = uxy * t - u.z * s;
  r.m[0][2] = uxz * t + u.y * s;
  r.m[1][0] = uxy * t + u.z * s;
  r.m[1][1] = c + uyy * t;
  r.m[1][2] = uyz * t - u.x * s;
  r.m[2][0] = uxz * t - u.y * s;
  r.m[2][1] = uyz * t + u.x * s;
  r.m[2][2] = c + uzz * t;
  return r;
}

/// Converts a rotation matrix to its rotation-vector (axis * angle) form.
/// Inverse of Mat3::rotation for angles in [0, pi].
Vec3 rotation_vector(const Mat3& r);

}  // namespace cyclops::geom
