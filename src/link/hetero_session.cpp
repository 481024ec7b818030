#include "link/hetero_session.hpp"

#include <array>

#include "link/event_session.hpp"
#include "obs/config.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace {

/// One slot across both channels: the core's quantized FSO steering step,
/// both link-state machines, then the margin-space handover decision and
/// service/rate accounting.
class HeteroSlotProcess final : public event::Process {
 public:
  HeteroSlotProcess(detail::SessionState& s, phy::Channel& fallback,
                    const HeteroConfig& config, HandoverProcess& handover)
      : s_(s), fallback_(fallback), config_(config), handover_(handover) {}

  void set_self(event::ProcessId id) noexcept { self_ = id; }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    const util::SimTimeUs now = ev.time;
    const geom::Pose pose = s_.profile.pose_at(now);

    sim::Scene& scene = s_.channel.scene();
    scene.clear_occluders();
    if (config_.fso_occlusion && config_.fso_occlusion(now)) {
      const geom::Vec3 mid =
          (scene.tx().mount().translation() + pose.translation()) * 0.5;
      scene.add_occluder({mid, 0.25});
    }
    s_.steer_quantized(now, pose);

    // Both channels sample the same pose; the handover decision runs in
    // margin space so the metrics stay unit-consistent.
    const std::array<phy::Channel*, 2> channels = {&s_.channel, &fallback_};
    std::array<double, 2> metric{};
    std::array<bool, 2> up{};
    std::array<double, 2> margin{};
    for (std::size_t i = 0; i < channels.size(); ++i) {
      metric[i] = channels[i]->power_at(pose, now);
      up[i] = channels[i]->step(now, metric[i]);
      margin[i] = metric[i] - channels[i]->info().sensitivity;
      if (margin[i] >= 0.0) ++usable_[i];
    }

    const std::array<double, 2> decision = {margin[0],
                                            margin[1] - kFallbackPenaltyDb};
    const int serving = handover_.on_powers(decision);
    ++slots_;
    bool serving_up = false;
    double slot_rate = 0.0;
    if (serving >= 0) {
      const auto i = static_cast<std::size_t>(serving);
      if (serving != last_serving_) {
        // The switch delay just paid for re-pointing + re-acquisition on
        // the new channel (HandoverConfig::switch_delay_s), so its state
        // machine comes up with the commit — same semantics as multi-TX.
        channels[i]->force_up();
        up[i] = channels[i]->step(now, metric[i]);
        last_serving_ = serving;
      }
      ++serving_slots_[i];
      if (up[i]) {
        serving_up = true;
        slot_rate = channels[i]->rate_for(metric[i]);
        ++served_;
        rate_sum_ += slot_rate;
      }
    }
    if (config_.on_slot) config_.on_slot(now, serving, serving_up, slot_rate);

    const util::SimTimeUs next = now + config_.step;
    if (next < s_.duration) {
      event::Event slot;
      slot.time = next;
      slot.type = kEvSlotSample;
      slot.target = self_;
      sched.schedule(slot);
    }
  }

  void finalize(HeteroResult& result) const {
    result.served_fraction =
        slots_ > 0 ? static_cast<double>(served_) / slots_ : 0.0;
    result.avg_rate_gbps = slots_ > 0 ? rate_sum_ / slots_ : 0.0;
    result.realignments = s_.result.realignments;
    const std::array<const phy::Channel*, 2> channels = {&s_.channel,
                                                         &fallback_};
    for (std::size_t i = 0; i < channels.size(); ++i) {
      HeteroChannelStats stats;
      stats.name = channels[i]->info().name;
      stats.usable_fraction =
          slots_ > 0 ? static_cast<double>(usable_[i]) / slots_ : 0.0;
      stats.serving_fraction =
          slots_ > 0 ? static_cast<double>(serving_slots_[i]) / slots_ : 0.0;
      result.channels.push_back(stats);
    }
  }

  int slots() const noexcept { return slots_; }
  int served() const noexcept { return served_; }
  const char* name() const noexcept override { return "hetero-slot"; }

 private:
  detail::SessionState& s_;
  phy::Channel& fallback_;
  const HeteroConfig& config_;
  HandoverProcess& handover_;
  event::ProcessId self_ = event::kNoProcess;

  int last_serving_ = 0;
  std::array<int, 2> usable_{};
  std::array<int, 2> serving_slots_{};
  int slots_ = 0;
  int served_ = 0;
  double rate_sum_ = 0.0;
};

}  // namespace

HeteroResult run_hetero_session(sim::Prototype& proto,
                                core::TpController& controller,
                                phy::Channel& fallback,
                                const motion::MotionProfile& profile,
                                const runtime::Context& ctx,
                                const HeteroConfig& config, SessionLog* log) {
  obs::Registry* registry = obs::kEnabled ? &ctx.registry() : nullptr;
  phy::FsoChannel fso(proto.scene);
  SimOptions options;
  options.step = config.step;
  detail::SessionState s{proto, controller, profile,
                         options, log,        detail::SessionMetrics(nullptr),
                         fso};
  s.duration = util::us_from_s(profile.duration_s());
  detail::start_aligned(proto, controller, profile, fso, ctx);
  fallback.force_up();
  s.next_report = proto.tracker.next_capture_time(0);

  session::ScopedScheduler lease(session::bind_session_clock(ctx));
  event::Scheduler& sched = lease.get();
  // Registered first: an equal-time switch-done timer commits before the
  // slot that samples it (same tie discipline as run_multi_tx_session).
  HandoverProcess handover(2, config.handover, sched, log, registry);

  HeteroSlotProcess slot(s, fallback, config, handover);
  const event::ProcessId slot_id = sched.add_process(&slot);
  slot.set_self(slot_id);
  if (s.duration > 0) {
    event::Event first;
    first.time = 0;
    first.type = kEvSlotSample;
    first.target = slot_id;
    sched.schedule(first);
  }
  sched.run();

  HeteroResult result;
  slot.finalize(result);
  result.switches = handover.switches();
  result.cancelled_switches = handover.cancelled_switches();
  result.events = sched.dispatched();
  result.slots = static_cast<std::uint64_t>(slot.slots());
  if (registry != nullptr) {
    registry->counter("hetero_slots_total").inc(result.slots);
    registry->counter("hetero_served_total")
        .inc(static_cast<std::uint64_t>(slot.served()));
    registry->counter("hetero_events_dispatched_total")
        .inc(sched.dispatched());
  }
  return result;
}

}  // namespace cyclops::link
