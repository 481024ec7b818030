// The generic session layer (src/session): scheduler reset/reuse
// semantics, the thread-local Workspace lease discipline, lazy isolated
// contexts, and run_session's uniform accounting.  The fleet-scale
// determinism contract (fleet == alone, byte for byte, at any driver
// width) lives in tests/fleet_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arena/session.hpp"
#include "arena/topology.hpp"
#include "event/scheduler.hpp"
#include "obs/config.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "session/lifecycle.hpp"
#include "util/sim_clock.hpp"

namespace cyclops {
namespace {

/// Schedules a follow-up event `count` times, recording dispatch times.
class ChainProcess final : public event::Process {
 public:
  explicit ChainProcess(int count) : remaining_(count) {}

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    times.push_back(ev.time);
    if (--remaining_ > 0) {
      event::Event next = ev;
      next.time = ev.time + 7;
      sched.schedule(next);
    }
  }
  const char* name() const noexcept override { return "chain"; }

  std::vector<util::SimTimeUs> times;

 private:
  int remaining_;
};

void drive_chain(event::Scheduler& sched, int count,
                 std::vector<util::SimTimeUs>* out) {
  ChainProcess chain(count);
  const event::ProcessId pid = sched.add_process(&chain);
  event::Event first;
  first.time = 3;
  first.type = 1;
  first.target = pid;
  sched.schedule(first);
  sched.run();
  if (out != nullptr) *out = chain.times;
}

TEST(SchedulerResetTest, ResetIsObservationallyFresh) {
  event::Scheduler sched;
  std::vector<util::SimTimeUs> first_run;
  drive_chain(sched, 32, &first_run);
  ASSERT_EQ(first_run.size(), 32u);
  EXPECT_EQ(sched.dispatched(), 32u);
  const std::size_t slab = sched.pool_slots();

  sched.reset();
  EXPECT_EQ(sched.dispatched(), 0u);
  EXPECT_EQ(sched.scheduled(), 0u);
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pool_slots(), slab) << "reset() must keep the event slab";

  std::vector<util::SimTimeUs> second_run;
  drive_chain(sched, 32, &second_run);
  EXPECT_EQ(second_run, first_run);
}

TEST(SchedulerResetTest, ResetRebindsToExternalClock) {
  util::SimClock clock;
  clock.advance_to(5000);
  event::Scheduler sched;
  drive_chain(sched, 4, nullptr);
  clock.reset();
  sched.reset(clock);
  EXPECT_EQ(sched.now(), 0);
  drive_chain(sched, 4, nullptr);
  EXPECT_EQ(clock.now(), 3 + 3 * 7) << "runs must drive the external clock";
}

TEST(WorkspaceTest, ScopedSchedulerLeasesBoundWorkspace) {
  ASSERT_EQ(session::current_workspace(), nullptr);
  session::Workspace workspace;
  {
    session::WorkspaceScope scope(workspace);
    ASSERT_EQ(session::current_workspace(), &workspace);
    {
      session::ScopedScheduler outer(nullptr);
      EXPECT_EQ(&outer.get(), &workspace.scheduler())
          << "first lease must reuse the workspace scheduler";
      // Nested acquisition while the workspace is leased falls back to an
      // owned scheduler (a runner driving a StreamPipeline mid-session).
      session::ScopedScheduler inner(nullptr);
      EXPECT_NE(&inner.get(), &workspace.scheduler());
    }
    EXPECT_EQ(workspace.leases(), 1u);
    {
      session::ScopedScheduler again(nullptr);
      EXPECT_EQ(&again.get(), &workspace.scheduler());
    }
    EXPECT_EQ(workspace.leases(), 2u);
  }
  EXPECT_EQ(session::current_workspace(), nullptr);
}

TEST(WorkspaceTest, LeasedSchedulerIsFreshAndSlabStabilizes) {
  session::Workspace workspace;
  session::WorkspaceScope scope(workspace);
  std::vector<util::SimTimeUs> baseline;
  std::size_t slab_after_first = 0;
  for (int i = 0; i < 4; ++i) {
    session::ScopedScheduler lease(nullptr);
    EXPECT_EQ(lease.get().dispatched(), 0u);
    EXPECT_EQ(lease.get().now(), 0);
    std::vector<util::SimTimeUs> times;
    drive_chain(lease.get(), 16, &times);
    if (i == 0) {
      baseline = times;
      slab_after_first = lease.get().pool_slots();
    } else {
      EXPECT_EQ(times, baseline);
      EXPECT_EQ(lease.get().pool_slots(), slab_after_first)
          << "slab must not grow across identical reused sessions";
    }
  }
}

TEST(LazyContextTest, IsolatedOwnsWithoutPreMaterializing) {
  runtime::Context ctx = runtime::Context::isolated({.seed = 11});
  // Ownership is reported before anything is materialized…
  EXPECT_TRUE(ctx.owns_pool());
  EXPECT_TRUE(ctx.owns_registry());
  // …and accessors materialize stable singletons on demand.
  obs::Registry& registry = ctx.registry();
  EXPECT_EQ(&registry, &ctx.registry());
  util::ThreadPool& pool = ctx.pool();
  EXPECT_EQ(&pool, &ctx.pool());
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_EQ(ctx.seed(), 11u);
}

TEST(RunSessionTest, StampsSpecAndAccountingCounters) {
  session::SessionSpec spec;
  spec.variant = session::Variant::kChannel;
  spec.seed = 17;
  spec.duration_s = 0.5;

  obs::Registry rollup;
  session::SessionExecution exec;
  exec.capture_metrics = true;
  exec.rollup = &rollup;
  const session::Report report =
      session::run_session(spec, session::catalog_factory(), exec);

  EXPECT_EQ(report.variant, session::Variant::kChannel);
  EXPECT_EQ(report.seed, 17u);
  EXPECT_GT(report.events, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(report.slots, 0u);
    EXPECT_EQ(rollup.counter("fleet_sessions_total").value(), 1u);
    EXPECT_EQ(rollup.counter("fleet_events_total").value(), report.events);
    EXPECT_EQ(rollup.counter("fleet_slots_total").value(), report.slots);
    EXPECT_NE(report.metrics_jsonl.find("fleet_events_total"),
              std::string::npos);
  }
}

TEST(RunSessionTest, EveryCatalogVariantRuns) {
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(v);
    spec.seed = 23 + v;
    spec.duration_s = 0.1;
    const session::Report report =
        session::run_session(spec, session::catalog_factory());
    EXPECT_GT(report.events, 0u)
        << session::variant_name(spec.variant) << " dispatched no events";
    EXPECT_EQ(report.variant, spec.variant);
  }
}

// Report.slots is the count the session itself keeps, in every build —
// not a read-back of the session's obs counters, which CYCLOPS_OBS=OFF
// compiles out.
TEST(RunSessionTest, SlotsAreTheSessionsOwnCountInEveryBuild) {
  // The sampling variants evaluate one slot per step over [0, duration).
  for (const session::Variant variant :
       {session::Variant::kLink, session::Variant::kHetero,
        session::Variant::kMultiTx}) {
    session::SessionSpec spec;
    spec.variant = variant;
    spec.seed = 5;
    spec.duration_s = 0.25;
    spec.step_us = 1000;
    const session::Report report =
        session::run_session(spec, session::catalog_factory());
    EXPECT_EQ(report.slots, 250u) << session::variant_name(variant);
  }

  // The arena counts serve slots summed over TXs; its per-TX duty
  // (serve slots / ticks) is the arena's own account of them.
  session::SessionSpec spec;
  spec.variant = session::Variant::kArena;
  spec.seed = 5;
  spec.duration_s = 2.0;
  const session::Report report =
      session::run_session(spec, session::catalog_factory());
  const arena::ArenaConfig config;
  const arena::ArenaTopology topology(
      config, spec.num_tx,
      arena::ArenaTopology::make_tracks(config, spec.num_players,
                                        arena::Scenario::kUniform,
                                        spec.duration_s, spec.seed));
  arena::ArenaOptions options;
  options.duration_s = spec.duration_s;
  const runtime::Context ctx = runtime::Context::isolated({.seed = spec.seed});
  const arena::ArenaResult direct =
      arena::run_arena_session(topology, options, ctx);
  const double ticks =
      static_cast<double>(util::us_from_s(spec.duration_s) / options.slot);
  std::uint64_t serve_slots = 0;
  for (const double duty : direct.per_tx_duty) {
    serve_slots += static_cast<std::uint64_t>(std::llround(duty * ticks));
  }
  EXPECT_GT(serve_slots, 0u);
  EXPECT_EQ(report.slots, serve_slots);
}

// ---- SessionSpec validation at the make_runner boundary ----

/// make_runner's rejection message for `spec`, or "" when it accepts it.
std::string rejection(const session::SessionSpec& spec) {
  try {
    session::make_runner(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SpecValidationTest, RejectsNonPositiveStep) {
  for (const util::SimTimeUs step : {0, -1000}) {
    session::SessionSpec spec;
    spec.variant = session::Variant::kLink;
    spec.step_us = step;
    const std::string message = rejection(spec);
    // ASSERT: an unvalidated zero step would hang the run below.
    ASSERT_NE(message.find("step_us"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(step)), std::string::npos)
        << message;
    // The run_session path goes through the same boundary.
    EXPECT_THROW(session::run_session(spec, session::catalog_factory()),
                 std::invalid_argument);
  }
}

TEST(SpecValidationTest, RejectsNonFiniteOrNegativeDuration) {
  for (const double duration : {-0.5, std::nan(""),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()}) {
    session::SessionSpec spec;
    spec.variant = session::Variant::kChannel;
    spec.duration_s = duration;
    std::ostringstream value;
    value << duration;
    const std::string message = rejection(spec);
    EXPECT_NE(message.find("duration_s"), std::string::npos) << message;
    EXPECT_NE(message.find(value.str()), std::string::npos) << message;
  }
}

TEST(SpecValidationTest, RejectsOutOfRangeVariant) {
  for (const unsigned raw : {static_cast<unsigned>(session::kVariantCount),
                             255u}) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(raw);
    const std::string message = rejection(spec);
    EXPECT_NE(message.find("variant"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(raw)), std::string::npos)
        << message;
  }
}

TEST(SpecValidationTest, ValidSpecsStillRun) {
  for (std::size_t v = 0; v < session::kVariantCount; ++v) {
    session::SessionSpec spec;
    spec.variant = static_cast<session::Variant>(v);
    spec.seed = 31 + v;
    spec.duration_s = 0.05;
    spec.step_us = 500;
    EXPECT_EQ(rejection(spec), "") << session::variant_name(spec.variant);
    const session::Report report =
        session::run_session(spec, session::catalog_factory());
    EXPECT_GT(report.events, 0u) << session::variant_name(spec.variant);
    // The boundary values themselves are legal: a zero-length session
    // and a 1 µs slot.
    spec.duration_s = 0.0;
    spec.step_us = 1;
    EXPECT_EQ(rejection(spec), "") << session::variant_name(spec.variant);
  }
}

TEST(SpecValidationTest, ZeroLengthStreamSessionRendersNothing) {
  // A zero duration is a legal spec; the stream runner must not hand it
  // to StreamPipeline, which rejects duration <= 0.
  session::SessionSpec spec;
  spec.variant = session::Variant::kStream;
  spec.duration_s = 0.0;
  const session::Report report =
      session::run_session(spec, session::catalog_factory());
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.slots, 0u);
  EXPECT_EQ(report.served_fraction, 0.0);
  EXPECT_EQ(report.avg_rate_gbps, 0.0);
}

}  // namespace
}  // namespace cyclops
