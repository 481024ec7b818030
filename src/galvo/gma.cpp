#include "galvo/gma.hpp"

namespace cyclops::galvo {

GmaPhysical::GmaPhysical(GalvoMirror galvo, geom::Pose mount)
    : galvo_(std::move(galvo)), mount_(std::move(mount)) {}

std::optional<geom::Ray> GmaPhysical::trace_parent(double v1, double v2) const {
  const auto local = galvo_.trace(v1, v2);
  if (!local) return std::nullopt;
  return mount_.apply(*local);
}

std::optional<optics::TracedBeam> GmaPhysical::emit(
    double v1, double v2, const optics::BeamSpec& spec) const {
  const auto ray = trace_parent(v1, v2);
  if (!ray) return std::nullopt;
  return optics::launch_beam(*ray, spec);
}

geom::Plane GmaPhysical::mirror2_plane_parent(double v2) const {
  return mount_.apply(galvo_.prepared().mirror2_plane(v2));
}

}  // namespace cyclops::galvo
