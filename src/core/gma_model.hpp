// The learned GMA model G — the paper's central object (§4.1).
//
// G(v1, v2) -> (p, x⃗): maps the two galvo voltages to the output beam's
// origin point (on mirror 2) and direction.  A GmaModel is *what Cyclops
// believes* about a physical GMA; it shares the GalvoParams
// parameterization but carries no aperture/clipping knowledge (the learner
// never sees those).  Models can be rigidly re-expressed in another frame
// (K-space -> VR-space) — that is exactly what the Stage-2 "mapping
// parameters" do.
#pragma once

#include <optional>

#include "galvo/galvo_mirror.hpp"
#include "geom/pose.hpp"
#include "geom/ray.hpp"

namespace cyclops::core {

class GmaModel {
 public:
  explicit GmaModel(galvo::GalvoParams params)
      : params_(std::move(params)), prepared_(params_) {}

  const galvo::GalvoParams& params() const noexcept { return params_; }

  /// Mirror angles for a voltage pair (for callers that reuse them).
  galvo::MirrorAngles angles(double v1, double v2) const {
    return prepared_.angles(v1, v2);
  }

  /// The modeled output beam (p, x⃗).  nullopt only in degenerate
  /// configurations (beam parallel to a mirror plane).
  std::optional<geom::Ray> trace(double v1, double v2) const {
    return trace(angles(v1, v2));
  }

  /// trace() at precomputed mirror angles.  A non-null `mirror2_normal`
  /// receives mirror 2's rotated normal (mirror2_plane()'s normal), so a
  /// caller that needs both pays for that rotation once.
  std::optional<geom::Ray> trace(const galvo::MirrorAngles& angles,
                                 geom::Vec3* mirror2_normal = nullptr) const;

  /// Mirror-2 plane for the given second-mirror voltage; contains every
  /// beam origin p and Lemma 1's target points tau.
  geom::Plane mirror2_plane(double v2) const {
    return prepared_.mirror2_plane(v2);
  }

  /// The same physical model expressed in `map`'s parent frame
  /// (map: this-frame -> parent-frame).
  GmaModel transformed(const geom::Pose& map) const;

  /// Ablation: the [32, 33]-style simplification that treats the beam
  /// origin p as a constant (its zero-voltage value) instead of letting it
  /// move with the voltages.  The paper argues this "distortion" must be
  /// modeled for mm accuracy — bench/ablation_distortion quantifies it.
  GmaModel with_frozen_origin() const;
  bool origin_frozen() const noexcept { return frozen_origin_.has_value(); }

 private:
  galvo::GalvoParams params_;
  /// The G kernel's per-model constants, prepared once per model.
  galvo::PreparedGalvo prepared_;
  /// When set, trace() reports this fixed origin point.
  std::optional<geom::Vec3> frozen_origin_;
};

}  // namespace cyclops::core
