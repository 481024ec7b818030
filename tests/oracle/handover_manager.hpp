// The slot-polled multi-TX handover manager, kept only as the oracle
// that link::HandoverProcess is pinned against slot for slot
// (tests/event_test): the best usable TX stays active with hysteresis,
// and a switch commits instantly, then blocks service for the switch
// delay.  It cannot cancel a switch (HandoverConfig::cancel_on_reacquire
// is ignored).
#pragma once

#include <cstddef>
#include <span>

#include "link/handover.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::link {

class HandoverManager {
 public:
  HandoverManager(std::size_t num_tx, HandoverConfig config)
      : config_(config), num_tx_(num_tx) {}

  /// Feeds the per-TX achievable powers for this instant; returns the
  /// index of the serving TX, or -1 while a switch is in progress.
  int step(util::SimTimeUs now, std::span<const double> powers_dbm);

  int active() const noexcept { return active_; }
  int switches() const noexcept { return switches_; }
  bool switching(util::SimTimeUs now) const noexcept {
    return now < switch_done_;
  }

 private:
  HandoverConfig config_;
  std::size_t num_tx_;
  int active_ = 0;
  int switches_ = 0;
  util::SimTimeUs switch_done_ = 0;
};

}  // namespace cyclops::link
