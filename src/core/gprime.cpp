#include "core/gprime.hpp"

#include <cmath>

#include "geom/ray.hpp"
#include "obs/registry.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// Records G' convergence tallies through the solver's hoisted handles on
/// every exit path (null handles — telemetry compiled out — record
/// nothing).
struct GPrimeRecorder {
  const GPrimeResult& result;
  obs::Counter* solves;
  obs::Counter* converged;
  obs::Histogram* iterations;

  ~GPrimeRecorder() {
    if (solves == nullptr) return;
    solves->inc();
    if (result.converged) converged->inc();
    iterations->record(static_cast<double>(result.iterations));
  }
};

}  // namespace

GPrimeSolver::GPrimeSolver(GPrimeOptions options, const runtime::Context& ctx)
    : options_(options) {
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    solves_ = &registry.counter("gprime_solves_total");
    converged_ = &registry.counter("gprime_converged_total");
    iterations_ = &registry.histogram(
        "gprime_iterations", obs::HistogramSpec::linear(-0.5, 1.0, 16));
  }
}

GPrimeState GPrimeSolver::begin(double v1_init, double v2_init) const {
  GPrimeState state;
  state.result.v1 = v1_init;
  state.result.v2 = v2_init;
  return state;
}

bool GPrimeSolver::advance(const GmaModel& model, const geom::Vec3& target,
                           GPrimeState& state) const {
  GPrimeResult& result = state.result;
  if (state.halted || result.converged ||
      result.iterations >= options_.max_iterations) {
    return false;
  }
  result.iterations += 1;

  const double eps = options_.probe_epsilon_volts;
  const galvo::MirrorAngles at0 = model.angles(result.v1, result.v2);
  const auto ray0 = model.trace(at0);
  if (!ray0) {
    state.halted = true;
    return false;
  }
  // Plane P: perpendicular to the current beam, through the target.
  const geom::Plane plane{target, ray0->dir};

  // Each probe moves one mirror; the other keeps its angle from ray0.
  const galvo::MirrorAngles at_eps = model.angles(result.v1 + eps,
                                                  result.v2 + eps);
  const auto k0 = hit_on_plane(ray0, plane);
  const auto k1 = hit_on_plane(model.trace({at_eps.m1, at0.m2}), plane);
  const auto k2 = hit_on_plane(model.trace({at0.m1, at_eps.m2}), plane);
  if (!k0 || !k1 || !k2) {
    state.halted = true;
    return false;
  }

  // Per-volt motion of the hit point on P.
  const geom::Vec3 u1 = (*k1 - *k0) / eps;
  const geom::Vec3 u2 = (*k2 - *k0) / eps;
  const geom::Vec3 d = target - *k0;

  // Least-squares solve a*u1 + b*u2 = d (2x2 normal equations).
  const double a11 = u1.dot(u1);
  const double a12 = u1.dot(u2);
  const double a22 = u2.dot(u2);
  const double b1 = u1.dot(d);
  const double b2 = u2.dot(d);
  const double det = a11 * a22 - a12 * a12;
  if (std::abs(det) < 1e-18) {
    state.halted = true;
    return false;
  }
  const double a = (b1 * a22 - b2 * a12) / det;
  const double b = (a11 * b2 - a12 * b1) / det;

  result.v1 += a;
  result.v2 += b;

  if (std::abs(a) < options_.tolerance_volts &&
      std::abs(b) < options_.tolerance_volts) {
    result.converged = true;
    return false;
  }
  return result.iterations < options_.max_iterations;
}

void GPrimeSolver::finish(const GmaModel& model, const geom::Vec3& target,
                          GPrimeState& state) const {
  if (state.halted) return;  // the one-shot early returns skip the trace
  if (const auto final_ray = model.trace(state.result.v1, state.result.v2)) {
    state.result.miss_distance =
        geom::line_point_distance(*final_ray, target);
  }
}

GPrimeResult GPrimeSolver::solve(const GmaModel& model,
                                 const geom::Vec3& target, double v1_init,
                                 double v2_init) const {
  GPrimeState state = begin(v1_init, v2_init);
  const GPrimeRecorder recorder{state.result, solves_, converged_,
                                iterations_};
  while (advance(model, target, state)) {
  }
  finish(model, target, state);
  return state.result;
}

}  // namespace cyclops::core
