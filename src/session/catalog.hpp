// The standard runner catalog: one concrete SessionRunner per Variant,
// built for LP-scale fleets — truth-calibrated pointing solvers instead
// of full calibrations (the concurrent_session_test recipe), standalone
// channels, synthetic deterministic workloads.  Everything a runner
// does is a pure function of (SessionSpec, isolated Context), so fleet
// runs are byte-identical to alone runs by construction.
#pragma once

#include <memory>

#include "session/runner.hpp"
#include "session/spec.hpp"

namespace cyclops::session {

/// Concrete runner for `spec.variant`.  The spec boundary: throws
/// std::invalid_argument naming the field and its value for
/// step_us <= 0, a non-finite or negative duration_s, or an
/// out-of-range variant.
std::unique_ptr<SessionRunner> make_runner(const SessionSpec& spec);

/// The catalog as a RunnerFactory (what run_fleet / run_session take).
RunnerFactory catalog_factory();

}  // namespace cyclops::session
