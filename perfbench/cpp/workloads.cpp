#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "cal/engine.hpp"
#include "core/evaluation.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "session/lifecycle.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cyclops;

void Fields::key(const char* key) {
  if (!s_.empty()) s_ += ',';
  s_ += '"';
  s_ += key;
  s_ += "\":";
}

void Fields::add(const char* key, double value) {
  this->key(key);
  char buf[32];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  s_ += buf;
}

void Fields::add(const char* key, std::uint64_t value) {
  this->key(key);
  s_ += std::to_string(value);
}

void Fields::add(const char* key, const std::string& value) {
  this->key(key);
  s_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') s_ += '\\';
    s_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  s_ += '"';
}

namespace {

constexpr double kMm = 1e3;

/// Every counter of `registry`, summed over label sets, as "counter.<name>"
/// members.
void add_registry(const obs::Registry& registry, Fields& out) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& [key, counter] : registry.counters()) {
    sums[key.name] += counter->value();
  }
  for (const auto& [name, value] : sums) {
    out.add(("counter." + name).c_str(), value);
  }
}

// ---------------------------------------------------------------- trace_study

/// The fig16 §5.4 study: trace i of the dataset is generated exactly as
/// motion::generate_dataset(base, n, config, Rng(dataset_seed)) makes it,
/// then evaluated in 1 ms slots on the event engine.
class TraceStudy final : public Workload {
 public:
  static constexpr std::size_t kPool = 500;

  explicit TraceStudy(std::uint64_t dataset_seed)
      : dataset_rng_(util::Rng(dataset_seed).split()),
        ctx_(runtime::Context::isolated({.seed = dataset_seed, .threads = 1})) {
    gen_.max_linear_mps = 0.19;
    gen_.shift_peak_mps = 0.17;
    gen_.shift_rate_hz = 0.22;
    eval_.engine = link::EvalEngine::kEvent;
  }

  std::size_t pool_size() const override { return kPool; }
  std::string kind(std::size_t) const override { return "trace"; }

  void warm_up() override {
    const runtime::Context scratch = runtime::Context::isolated({.threads = 1});
    for (std::size_t key = 0; key < 8; ++key) {
      link::evaluate_trace(generate(key, nullptr, 0), eval_, scratch);
    }
  }

  UnitResult run_unit(std::size_t key, std::uint64_t unit,
                      SpanRecorder* spans) override {
    const motion::Trace trace = generate(key, spans, unit);
    link::SlotEvalResult eval;
    {
      Span span(spans, "link.evaluate_trace", unit);
      eval = link::evaluate_trace(trace, eval_, ctx_);
    }
    UnitResult result;
    result.out.add("off_slots", static_cast<std::uint64_t>(eval.off_slots));
    result.out.add("total_slots", static_cast<std::uint64_t>(eval.total_slots));
    result.out.add("samples", static_cast<std::uint64_t>(trace.samples.size()));
    result.sim_s = trace.duration_s();
    return result;
  }

  void after_unit(std::size_t, bool, UnitResult&) override {}

  void finish(Fields& out) override { add_registry(ctx_.registry(), out); }

 private:
  motion::Trace generate(std::size_t key, SpanRecorder* spans,
                         std::uint64_t unit) const {
    util::Rng trace_rng = dataset_rng_.split(key);
    motion::TraceGeneratorConfig c = gen_;
    const double activity = trace_rng.uniform(0.4, 1.5);
    c.yaw_rate_sigma *= activity;
    c.pitch_rate_sigma *= activity;
    c.roll_rate_sigma *= activity;
    c.sway_speed_sigma *= activity;
    c.saccade_rate_hz *= activity;
    c.shift_rate_hz *= activity;
    Span span(spans, "motion.generate_viewing_trace", unit);
    return motion::generate_viewing_trace(base_, c, trace_rng);
  }

  const geom::Pose base_{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  const util::Rng dataset_rng_;
  motion::TraceGeneratorConfig gen_;
  link::SlotEvalConfig eval_;
  runtime::Context ctx_;  ///< Roll-up of the eval plane's counters.
};

// ------------------------------------------------------------------ fleet_mix

/// bench/fleet_sim's spec recipe, with the seed offset by the dataset seed.
session::SessionSpec make_spec(std::size_t i, std::uint64_t dataset_seed) {
  session::SessionSpec spec;
  spec.variant = static_cast<session::Variant>(i % session::kVariantCount);
  spec.seed = dataset_seed * 100000 + 1 + static_cast<std::uint64_t>(i);
  spec.motion = static_cast<std::uint32_t>(i / session::kVariantCount) % 3;
  spec.intensity = 1.0 + 0.25 * static_cast<double>(i % 4);
  switch (spec.variant) {
    case session::Variant::kChannel:
      spec.duration_s = 1.0;
      break;
    case session::Variant::kArena:
    case session::Variant::kStream:
      spec.duration_s = 0.5;
      break;
    default:
      spec.duration_s = 0.2;
      break;
  }
  return spec;
}

bool same_report(const session::Report& a, const session::Report& b) {
  return a.variant == b.variant && a.seed == b.seed && a.events == b.events &&
         a.slots == b.slots && a.served_fraction == b.served_fraction &&
         a.avg_rate_gbps == b.avg_rate_gbps && a.switches == b.switches &&
         a.metrics_jsonl == b.metrics_jsonl;
}

/// Sessions one at a time, as the fleet chunk body runs them: one bound
/// Workspace, metrics captured, every session registry folded into one
/// roll-up.  The traced run takes the same steps through the public
/// pieces (Context, RunnerFactory, prepare, run, to_jsonl, merge_from) so
/// each gets its own span; after_unit proves that path returns the Report
/// run_session does.
class FleetMix final : public Workload {
 public:
  static constexpr std::size_t kPool = 100 * session::kVariantCount;

  explicit FleetMix(std::uint64_t dataset_seed)
      : factory_(session::catalog_factory()), scope_(workspace_) {
    specs_.reserve(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      specs_.push_back(make_spec(i, dataset_seed));
    }
    verified_.assign(kPool, false);
  }

  std::size_t pool_size() const override { return kPool; }
  std::string kind(std::size_t key) const override {
    return session::variant_name(specs_[key].variant);
  }

  void warm_up() override {
    const session::SessionExecution exec{.capture_metrics = true,
                                         .rollup = nullptr};
    for (std::size_t key = 0; key < session::kVariantCount; ++key) {
      session::run_session(specs_[key], factory_, exec);
    }
  }

  UnitResult run_unit(std::size_t key, std::uint64_t unit,
                      SpanRecorder* spans) override {
    const session::SessionSpec& spec = specs_[key];
    series_ = 0;
    report_ = spans == nullptr
                  ? session::run_session(
                        spec, factory_,
                        {.capture_metrics = true, .rollup = &rollup_})
                  : split_session(spec, unit, spans);
    UnitResult result;
    result.out.add("events", report_.events);
    result.out.add("slots", report_.slots);
    result.out.add("switches", report_.switches);
    result.out.add("served_fraction", report_.served_fraction);
    result.out.add("avg_rate_gbps", report_.avg_rate_gbps);
    result.sim_s = spec.duration_s;
    return result;
  }

  void after_unit(std::size_t key, bool traced, UnitResult& result) override {
    sessions_ += 1;
    events_ += report_.events;
    slots_ += report_.slots;
    if (traced) {
      result.out.add("series", series_);
      if (!verified_[key]) {
        const session::Report alone = session::run_session(
            specs_[key], factory_, {.capture_metrics = true, .rollup = nullptr});
        if (!same_report(alone, report_)) {
          throw std::runtime_error("traced split path differs from run_session");
        }
        verified_[key] = true;
      }
    }
  }

  void finish(Fields& out) override {
    add_registry(rollup_, out);
    out.add("sum.sessions", sessions_);
    out.add("sum.events", events_);
    out.add("sum.slots", slots_);
  }

 private:
  /// run_session's body, step by step, with a span per public call.
  session::Report split_session(const session::SessionSpec& spec,
                                std::uint64_t unit, SpanRecorder* spans) {
    std::optional<runtime::Context> ctx;
    std::unique_ptr<session::SessionRunner> runner;
    {
      Span span(spans, "session.ctx", unit);
      ctx.emplace(runtime::Context::isolated({.seed = spec.seed, .threads = 1}));
      runner = factory_(spec);
    }
    {
      Span span(spans, "session.prepare", unit);
      runner->prepare(*ctx);
    }
    session::Report report;
    {
      Span span(spans, "session.run", unit);
      report = runner->run(*ctx);
    }
    report.variant = spec.variant;
    report.seed = spec.seed;
    if constexpr (obs::kEnabled) {
      obs::Registry& registry = ctx->registry();
      registry.counter("fleet_sessions_total").inc(1);
      registry.counter("fleet_events_total").inc(report.events);
      registry.counter("fleet_slots_total").inc(report.slots);
      {
        Span span(spans, "obs.export", unit);
        report.metrics_jsonl = obs::to_jsonl(registry);
      }
      {
        Span span(spans, "obs.merge", unit);
        rollup_.merge_from(registry);
      }
      series_ = registry.counters().size() + registry.gauges().size() +
                registry.histograms().size();
    }
    return report;
  }

  session::RunnerFactory factory_;
  session::Workspace workspace_;
  session::WorkspaceScope scope_;
  obs::Registry rollup_;
  std::vector<session::SessionSpec> specs_;
  std::vector<bool> verified_;
  session::Report report_;
  std::uint64_t series_ = 0;
  std::uint64_t sessions_ = 0, events_ = 0, slots_ = 0;
};

// ------------------------------------------------------------------ calibrate

/// Span tag for an engine phase: the six phase groups the benchmark
/// attributes calibration time to.
const char* phase_group(cal::Phase phase) {
  switch (phase) {
    case cal::Phase::kStage1TxCollect:
    case cal::Phase::kStage1RxCollect:
      return "stage1_collect";
    case cal::Phase::kStage1TxFit:
    case cal::Phase::kStage1RxFit:
      return "stage1_fit";
    case cal::Phase::kStage2Collect:
      return "stage2_collect";
    case cal::Phase::kStage2Fit:
      return "stage2_fit";
    case cal::Phase::kStage2BlindA:
    case cal::Phase::kStage2BlindB:
      return "stage2_blind";
    case cal::Phase::kStage2Retry:
      return "stage2_retry";
    case cal::Phase::kDone:
      break;
  }
  return "done";
}

/// Full offline installs (bench/bench_common make_calibrated_rig's recipe)
/// stepped through cal::CalibrationEngine: pool key = prototype seed x
/// {10G, 25G} x {guided, blind Stage 2}.
class Calibrate final : public Workload {
 public:
  static constexpr std::size_t kPrototypeSeeds = 2;
  static constexpr std::size_t kPool = kPrototypeSeeds * 4;

  explicit Calibrate(std::uint64_t dataset_seed) : dataset_seed_(dataset_seed) {}

  std::size_t pool_size() const override { return kPool; }
  std::string kind(std::size_t key) const override {
    return std::string(is_25g(key) ? "25g" : "10g") +
           (is_blind(key) ? "_blind" : "_guided");
  }

  /// Builds one prototype per config and runs its Stage-1 TX board
  /// collection (the GMA forward model's first use), then discards it.
  void warm_up() override {
    for (const sim::PrototypeConfig& config :
         {sim::prototype_10g_config(), sim::prototype_25g_config()}) {
      sim::Prototype proto = sim::make_prototype(dataset_seed_, config);
      const runtime::Context ctx = runtime::Context::isolated({.threads = 1});
      cal::CalibrationEngine engine(proto, core::CalibrationConfig{},
                                    util::Rng(dataset_seed_), ctx);
      while (engine.phase() == cal::Phase::kStage1TxCollect && engine.step()) {
      }
    }
  }

  UnitResult run_unit(std::size_t key, std::uint64_t unit,
                      SpanRecorder* spans) override {
    const std::uint64_t seed = prototype_seed(key);
    {
      Span span(spans, "sim.make_prototype", unit);
      proto_.emplace(sim::make_prototype(
          seed, is_25g(key) ? sim::prototype_25g_config()
                            : sim::prototype_10g_config()));
    }
    ctx_.emplace(runtime::Context::isolated({.threads = 1}));
    core::CalibrationConfig config;
    config.blind_stage2 = is_blind(key);
    const util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    cal::CalibrationEngine engine(*proto_, config, rng, *ctx_);
    if (spans == nullptr) {
      while (engine.step()) {
      }
    } else {
      bool more = true;
      while (more) {
        Span span(spans, "cal.step", unit, phase_group(engine.phase()));
        more = engine.step();
      }
    }
    calib_.emplace(engine.take_result());

    UnitResult result;
    const core::CalibrationResult& c = *calib_;
    result.out.add("tx1_avg_mm", c.tx_stage1.avg_error_m * kMm);
    result.out.add("tx1_max_mm", c.tx_stage1.max_error_m * kMm);
    result.out.add("rx1_avg_mm", c.rx_stage1.avg_error_m * kMm);
    result.out.add("rx1_max_mm", c.rx_stage1.max_error_m * kMm);
    result.out.add("lemma1_mm", c.mapping.avg_coincidence_m * kMm);
    result.out.add("tx1_iterations",
                   static_cast<std::uint64_t>(c.tx_stage1.optimizer_iterations));
    result.out.add("rx1_iterations",
                   static_cast<std::uint64_t>(c.rx_stage1.optimizer_iterations));
    result.out.add("stage1_converged",
                   static_cast<std::uint64_t>(c.tx_stage1.converged) +
                       static_cast<std::uint64_t>(c.rx_stage1.converged));
    result.out.add("steps", engine.steps());
    return result;
  }

  /// Table 2's combined (Stage 1 + Stage 2) errors, evaluated the way
  /// bench/table2_gma_errors does, outside the timed install.
  void after_unit(std::size_t, bool, UnitResult& result) override {
    util::Rng rng(17);
    const core::CombinedErrors combined = core::evaluate_combined_errors(
        *proto_, *calib_, 20, 0.15, 0.10, rng);
    result.out.add("tx_combined_avg_mm", combined.tx.avg_m * kMm);
    result.out.add("rx_combined_avg_mm", combined.rx.avg_m * kMm);
    rollup_.merge_from(ctx_->registry());
  }

  void finish(Fields& out) override { add_registry(rollup_, out); }

 private:
  static bool is_blind(std::size_t key) { return key % 2 == 1; }
  static bool is_25g(std::size_t key) { return (key / 2) % 2 == 1; }
  std::uint64_t prototype_seed(std::size_t key) const {
    return dataset_seed_ + key / 4;
  }

  std::uint64_t dataset_seed_;
  std::optional<sim::Prototype> proto_;
  std::optional<runtime::Context> ctx_;
  std::optional<core::CalibrationResult> calib_;
  obs::Registry rollup_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t dataset_seed) {
  if (name == "trace_study") return std::make_unique<TraceStudy>(dataset_seed);
  if (name == "fleet_mix") return std::make_unique<FleetMix>(dataset_seed);
  if (name == "calibrate") return std::make_unique<Calibrate>(dataset_seed);
  return nullptr;
}

}  // namespace perfbench
