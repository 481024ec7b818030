// The original fixed-step closed loop (0.5 ms physics steps), kept only
// as the equivalence oracle for link::run_link_simulation: same
// signature, and per-window output exactly equal to the event-driven
// session core (tests/session_core_test, bench/fig13_10g_pure).
#pragma once

#include "link/fso_link.hpp"

namespace cyclops::link {

RunResult run_link_simulation_fixed_step(sim::Prototype& proto,
                                         core::TpController& controller,
                                         const motion::MotionProfile& profile,
                                         const SimOptions& options = {});

}  // namespace cyclops::link
