// perfbench: runs one benchmark workload on one driver thread and writes
// the raw measurements (per-unit times and outputs, set-up times, counters)
// as one JSON document.  run.py builds this binary, checks the outputs
// against the shipped references and turns the measurements into metrics.
//
//   perfbench --workload <trace_study|fleet_mix|calibrate> --seed <n>
//             --seconds <s> --trace <0|1> --out <file>
//             [--dataset-seed <d>] [--trace-out <file>]
//
// Set-up (building the workload fixture plus its warm-up units) is timed
// kSetupReps times: once for the fixture that is measured, before the first
// timed unit, and once for each of kSetupReps - 1 throwaway fixtures spread
// evenly over the measured window, so that the set-up samples see the same
// host as the units do.  The timed part runs whole passes over the
// workload's pool, each pass in an order drawn from --seed, until the summed
// unit time reaches --seconds (at least two passes with --trace 1: even
// passes untraced, odd passes traced).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t dataset_seed = 2022;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dataset-seed") {
      args.dataset_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out.empty() &&
         args.seconds > 0.0;
}

/// Fisher-Yates over the pool keys with a per-pass stream of the run seed.
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  cyclops::util::Rng rng = cyclops::util::Rng(seed).split(pass);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  return order;
}

/// This process image's peak resident set (VmHWM).  getrusage's ru_maxrss
/// would also count the parent's pages it inherited before exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <file> [--dataset-seed <d>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  // Pool width 1: every fan-out inside the simulator runs inline.
  cyclops::util::ThreadPool::SerialScope serial;

  std::vector<double> setup_s;
  // Builds and warms one fixture, timing both.  Throwaway fixtures are
  // destroyed while the measured one lives, so their WorkspaceScopes nest.
  const auto set_up = [&]() {
    const double cpu0 = process_cpu_ns();
    std::unique_ptr<Workload> fixture =
        make_workload(args.workload, args.dataset_seed);
    if (fixture != nullptr) {
      fixture->warm_up();
      setup_s.push_back((process_cpu_ns() - cpu0) * 1e-9);
    }
    return fixture;
  };
  const std::unique_ptr<Workload> workload = set_up();
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Takes the set-up samples whose share of the window has been reached.
  const auto sample_set_up = [&](double reached_s) {
    while (setup_s.size() < static_cast<std::size_t>(kSetupReps) &&
           reached_s >= args.seconds * static_cast<double>(setup_s.size()) /
                            kSetupReps) {
      set_up();
    }
  };

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  std::fprintf(out, "{\"units\":[\n");

  const std::string unit_span = args.workload + ".unit";
  SpanRecorder recorder(Clock::now());
  double timed_s = 0.0;
  std::uint64_t unit = 0;
  std::uint64_t pass = 0;
  while (timed_s < args.seconds || (args.trace && pass < 2)) {
    const bool traced = args.trace && pass % 2 == 1;
    SpanRecorder* spans = traced ? &recorder : nullptr;
    for (std::size_t key :
         pass_order(workload->pool_size(), args.seed, pass)) {
      sample_set_up(timed_s);
      UnitResult result;
      std::string error;
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = process_cpu_ns();
      try {
        Span span(spans, unit_span.c_str(), unit);
        result = workload->run_unit(key, unit, spans);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double cpu_ns = process_cpu_ns() - cpu0;
      const double wall_ns = ns_between(t0, Clock::now());
      timed_s += cpu_ns * 1e-9;
      if (error.empty()) {
        try {
          workload->after_unit(key, traced, result);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      Fields unit_fields;
      unit_fields.add("unit", unit);
      unit_fields.add("key", static_cast<std::uint64_t>(key));
      unit_fields.add("kind", workload->kind(key));
      unit_fields.add("pass", pass);
      unit_fields.add("traced", static_cast<std::uint64_t>(traced));
      unit_fields.add("cpu_ns", cpu_ns);
      unit_fields.add("wall_ns", wall_ns);
      unit_fields.add("sim_s", result.sim_s);
      if (!error.empty()) unit_fields.add("error", error);
      std::fprintf(out, "%s{%s,\"out\":{%s}}\n", unit == 0 ? "" : ",",
                   unit_fields.str().c_str(), result.out.str().c_str());
      ++unit;
    }
    ++pass;
  }
  sample_set_up(args.seconds);

  Fields summary;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    summary.add(("setup_s." + std::to_string(i)).c_str(), setup_s[i]);
  }
  summary.add("passes", pass);
  summary.add("pool_size", static_cast<std::uint64_t>(workload->pool_size()));
  summary.add("peak_rss_mb", peak_rss_mb());
  summary.add("build_type", std::string(PERFBENCH_BUILD_TYPE));
  summary.add("cyclops_obs", std::string(PERFBENCH_OBS));
  summary.add("pool_width", static_cast<std::uint64_t>(1));
  workload->finish(summary);
  std::fprintf(out, "],\"summary\":{%s}}\n", summary.str().c_str());
  const bool closed = std::fclose(out) == 0;

  if (args.trace && !args.trace_out.empty() &&
      !recorder.write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 2;
  }
  return closed ? 0 : 2;
}
