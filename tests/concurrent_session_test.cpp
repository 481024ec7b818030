// The Context refactor's isolation guarantee, end to end: N sessions run
// through the fleet driver session::run_fleet — each on its own isolated
// context — produce SessionLogs and metric exports byte-identical to the
// same session run alone, at every driver thread count (DESIGN.md §11).
//
// The session body is a real event-driven link session (truth-calibrated
// pointing solver, synthetic head trace from the context RNG), so every
// plane the refactor touched is on the path: scheduler on the context
// clock, solver metrics into the context registry, alignment polish on
// the context pool.  A test-local RunnerFactory wraps the body; its
// runner writes the RunResult, SessionLog and metrics export into a
// per-session slot this test owns.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/gma_model.hpp"
#include "core/pointing.hpp"
#include "core/tp_controller.hpp"
#include "link/event_session.hpp"
#include "link/session_log.hpp"
#include "motion/trace_generator.hpp"
#include "obs/obs.hpp"
#include "runtime/context.hpp"
#include "session/fleet.hpp"
#include "session/runner.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

constexpr std::size_t kSessions = 4;
/// Session i runs on the isolated context seeded kSeedBase + i.
constexpr std::uint64_t kSeedBase = 1000;

/// Everything one session leaves behind: its run result, its session log,
/// and its context's full metrics export (obs::to_jsonl; empty in
/// CYCLOPS_OBS=OFF builds).
struct SessionOutput {
  link::RunResult run;
  link::SessionLog log;
  std::string metrics_jsonl;
};

/// Ground-truth pointing solver: keeps sessions cheap (no calibration)
/// and free of wall-clock metrics (LM records lm_solve_wall_us, which is
/// not deterministic; G'/session metrics are pure sim-time quantities).
core::PointingSolver truth_solver(const sim::Prototype& proto,
                                  const runtime::Context& ctx) {
  return core::PointingSolver(
      core::GmaModel(proto.tx_galvo_truth).transformed(proto.k_from_tx_gma),
      core::GmaModel(proto.rx_galvo_truth).transformed(proto.k_from_rx_gma),
      proto.true_map_tx, proto.true_map_rx, {}, ctx);
}

link::RunResult session_body(std::size_t i, runtime::Context& ctx,
                             link::SessionLog& log) {
  sim::Prototype proto =
      sim::make_prototype(100 + i, sim::prototype_25g_config());
  core::TpController controller(truth_solver(proto, ctx), core::TpConfig{});

  motion::TraceGeneratorConfig trace_config;
  trace_config.duration_s = 2.0;
  util::Rng trace_rng = ctx.rng(/*key=*/1);
  const motion::Trace trace = motion::generate_viewing_trace(
      proto.nominal_rig_pose, trace_config, trace_rng);
  const motion::TraceMotion profile(trace);

  link::SimOptions options;
  options.step = 1000;
  return link::run_link_session_events(proto, controller, profile, ctx,
                                       options, &log);
}

runtime::Context make_session_ctx(std::size_t i) {
  runtime::Context::Options opts;
  opts.seed = kSeedBase + i;  // per-session stream; inline pool (threads = 1)
  return runtime::Context::isolated(opts);
}

/// Runs session_body on the fleet-provided context and fills the
/// session's slot.  The export is taken at the end of run(), before
/// run_session stamps its fleet_* accounting counters, so it is exactly
/// what the body recorded.
class LinkSessionRunner final : public session::SessionRunner {
 public:
  LinkSessionRunner(std::size_t index, SessionOutput& out)
      : index_(index), out_(out) {}
  const char* name() const noexcept override { return "concurrent_link"; }
  void prepare(runtime::Context&) override {}
  session::Report run(runtime::Context& ctx) override {
    out_.run = session_body(index_, ctx, out_.log);
    if constexpr (obs::kEnabled) {
      out_.metrics_jsonl = obs::to_jsonl(ctx.registry());
    }
    session::Report report;
    report.served_fraction = out_.run.total_up_fraction;
    report.switches = static_cast<std::uint64_t>(out_.run.realignments);
    return report;
  }

 private:
  std::size_t index_;
  SessionOutput& out_;
};

/// Runs `n` sessions through session::run_fleet on `pool`; outputs are
/// returned in session order.  The factory is called from driver
/// threads, and each runner writes only its own slot.
std::vector<SessionOutput> run_sessions(std::size_t n,
                                        util::ThreadPool& pool) {
  std::vector<SessionOutput> outputs(n);
  std::vector<session::SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) specs[i].seed = kSeedBase + i;
  const session::RunnerFactory factory =
      [&outputs](const session::SessionSpec& spec) {
        const std::size_t i = spec.seed - kSeedBase;
        return std::make_unique<LinkSessionRunner>(i, outputs[i]);
      };
  session::run_fleet(specs, factory, {}, &pool);
  return outputs;
}

void expect_logs_identical(const link::SessionLog& a,
                           const link::SessionLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].power_dbm, b.events()[i].power_dbm);  // exact
  }
}

void expect_outputs_identical(const SessionOutput& a,
                              const SessionOutput& b) {
  EXPECT_EQ(a.run.total_up_fraction, b.run.total_up_fraction);  // exact
  EXPECT_EQ(a.run.realignments, b.run.realignments);
  EXPECT_EQ(a.run.tp_failures, b.run.tp_failures);
  EXPECT_EQ(a.run.avg_pointing_iterations, b.run.avg_pointing_iterations);
  expect_logs_identical(a.log, b.log);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);  // byte-identical export
}

TEST(ConcurrentSessionTest, ParallelSessionsMatchAloneRunsByteForByte) {
  // Baseline: each session truly alone — its own context, run serially,
  // nothing else in flight.
  std::vector<SessionOutput> alone(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    runtime::Context ctx = make_session_ctx(i);
    alone[i].run = session_body(i, ctx, alone[i].log);
    if constexpr (obs::kEnabled) {
      alone[i].metrics_jsonl = obs::to_jsonl(ctx.registry());
    }
  }
  ASSERT_GE(alone[0].log.events().size(), 1u);
  if constexpr (obs::kEnabled) {
    ASSERT_FALSE(alone[0].metrics_jsonl.empty());
  }

  // The driver at 1, 2, and 8 threads must reproduce the alone runs
  // byte for byte — the sessions share nothing, so interleaving them
  // arbitrarily cannot change any output.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("driver threads = " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const std::vector<SessionOutput> outputs =
        run_sessions(kSessions, pool);
    ASSERT_EQ(outputs.size(), kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      expect_outputs_identical(outputs[i], alone[i]);
    }
  }
}

TEST(ConcurrentSessionTest, SessionsDifferFromEachOther) {
  // Sanity: the byte-equality above is not vacuous — distinct seeds give
  // distinct traces, so sessions are genuinely different computations.
  const std::vector<SessionOutput> outputs =
      run_sessions(2, util::ThreadPool::serial());
  const bool all_equal =
      outputs[0].run.avg_pointing_iterations ==
          outputs[1].run.avg_pointing_iterations &&
      outputs[0].log.events().size() == outputs[1].log.events().size() &&
      outputs[0].metrics_jsonl == outputs[1].metrics_jsonl;
  EXPECT_FALSE(all_equal);
}

TEST(ConcurrentSessionTest, MetricsRollUpAcrossSessionRegistries) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "OBS=OFF build";
  // Fleet rollup: parse each session's export back into one registry.
  const std::vector<SessionOutput> outputs =
      run_sessions(2, util::ThreadPool::serial());
  obs::Registry fleet;
  for (const SessionOutput& out : outputs) {
    ASSERT_TRUE(obs::from_jsonl(out.metrics_jsonl, fleet));
  }
  const std::uint64_t total =
      fleet.counter("session_slots_total").value();
  std::uint64_t per_session_sum = 0;
  for (const SessionOutput& out : outputs) {
    obs::Registry one;
    ASSERT_TRUE(obs::from_jsonl(out.metrics_jsonl, one));
    per_session_sum += one.counter("session_slots_total").value();
  }
  EXPECT_EQ(total, per_session_sum);
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace cyclops
