#include "stream/frame_source.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cyclops::stream {

util::SimTimeUs frame_period(double fps, const char* config) {
  util::require(std::isfinite(fps) && fps > 0.0 && fps <= 2e6, config, "fps",
                "finite and in (0, 2e6] (a frame period of >= 1 us)", fps);
  return static_cast<util::SimTimeUs>(std::llround(1e6 / fps));
}

std::optional<Frame> FrameSource::poll(util::SimTimeUs now) {
  if (now < next_time_) return std::nullopt;
  Frame frame;
  frame.id = next_id_++;
  frame.render_time = next_time_;
  const double jitter =
      config_.size_jitter > 0.0 ? rng_.normal(1.0, config_.size_jitter) : 1.0;
  frame.bits = config_.mean_frame_bits() * std::max(0.1, jitter);
  next_time_ += period_;
  return frame;
}

}  // namespace cyclops::stream
