#include "cal/checkpoint.hpp"

#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/record_codec.hpp"

namespace cyclops::cal {
namespace {

using core::persist::Bounded;

constexpr const char* kMagic = "cyclops-cal-checkpoint v1";

// Record composites: each returns a callable that hands its fields to the
// codec's visitor, reading from `x` when it is const and writing back to
// it otherwise.

template <class V3>
auto xyz(V3& x) {
  return [&x](auto& v) { v(x.x, x.y, x.z); };
}

// Poses round-trip through the raw rotation matrix (row-major) plus the
// translation: 12 values.  Pose::params() goes through the
// rotation-vector form, which loses ULPs — not acceptable for bit-exact
// resume.
template <class P>
auto raw_pose(P& pose) {
  return [&pose](auto& v) {
    geom::Mat3 r = pose.rotation();
    geom::Vec3 t = pose.translation();
    v(r.m, xyz(t));
    if constexpr (!std::is_const_v<P>) pose = {r, t};
  };
}

// The model's 25 raw parameters, then the fit statistics: 29 values,
// zeros when the report is absent (the state record's flag says which).
// Raw field assignment on read, NOT GalvoParams::unpack: unpack
// re-normalizes the direction vectors, which shifts ULPs on load and would
// break the bit-exact-continuation contract for every phase after a
// Stage-1 fit completes.  The checkpointed model is already canonical (it
// came out of unpack when the fit finished); the reader must reproduce it
// verbatim.
template <class R>
auto kspace_report(R& report, bool present) {
  return [&report, present](auto& v) {
    galvo::GalvoParams p;
    double avg = 0.0, max = 0.0;
    int iterations = 0;
    bool converged = false;
    if (report) {
      p = report->model.params();
      avg = report->avg_error_m;
      max = report->max_error_m;
      iterations = report->optimizer_iterations;
      converged = report->converged;
    }
    v(xyz(p.p0), xyz(p.x0), xyz(p.n1), xyz(p.q1), xyz(p.r1), xyz(p.n2),
      xyz(p.q2), xyz(p.r2), p.theta1, avg, max, iterations, converged);
    if constexpr (!std::is_const_v<R>) {
      if (present) {
        report = core::KSpaceFitReport{core::GmaModel(p), avg, max,
                                       iterations, converged};
      }
    }
  };
}

template <class M>
auto mapping_report(M& report) {
  return [&report](auto& v) {
    v(raw_pose(report.map_tx), raw_pose(report.map_rx),
      report.avg_coincidence_m, report.max_coincidence_m,
      report.optimizer_iterations, report.converged);
  };
}

/// The checkpoint format: every record, in file order.
template <class Io, class Cp>
void checkpoint_records(Io& io, Cp& cp) {
  bool has_tx = cp.tx_report.has_value();
  bool has_rx = cp.rx_report.has_value();
  io.u64s("state", Bounded{"phase", cp.phase, static_cast<int>(Phase::kDone)},
          cp.steps, cp.stage2_i, cp.blind_a, cp.blind_b, cp.retry_attempt,
          Bounded{"lm_active", cp.lm_active, 1},
          Bounded{"tx_report", has_tx, 1}, Bounded{"rx_report", has_rx, 1});
  io.u64s("rng_state", cp.rng.s);
  io.f64s("rng_normal", cp.rng.cached_normal, cp.rng.has_cached_normal);
  io.f64s("collector", cp.collector.i, cp.collector.j, cp.collector.v1,
          cp.collector.v2);
  io.f64s("tx_report", kspace_report(cp.tx_report, has_tx));
  io.f64s("rx_report", kspace_report(cp.rx_report, has_rx));
  const auto board_sample = [](auto& v, auto& s) { v(s.x, s.y, s.v1, s.v2); };
  io.array("tx_samples_n", "tx_samples", cp.tx_samples, board_sample);
  io.array("rx_samples_n", "rx_samples", cp.rx_samples, board_sample);
  io.array("lm_n", "lm_params", cp.lm.params, [](auto& v, auto& x) { v(x); });
  io.f64s("lm_state", cp.lm.lambda, cp.lm.initial_cost, cp.lm.iterations,
          cp.lm.converged);
  io.array("tuples_n", "tuples", cp.tuples, [](auto& v, auto& t) {
    v(t.voltages.tx1, t.voltages.tx2, t.voltages.rx1, t.voltages.rx2,
      raw_pose(t.psi));
  });
  io.f64s("hint", cp.hint.tx1, cp.hint.tx2, cp.hint.rx1, cp.hint.rx2);
  io.f64s("tx_guess", raw_pose(cp.tx_guess));
  io.f64s("rx_guess", raw_pose(cp.rx_guess));
  io.f64s("mapping", mapping_report(cp.mapping));
  io.f64s("blind", xyz(cp.blind_centroid), cp.blind_tx_best,
          cp.blind_tx_best_value, cp.blind_best_value);
  io.f64s("blind_seed", raw_pose(cp.blind_tx_seed));
  io.f64s("blind_best", mapping_report(cp.blind_best));
  io.f64s("retry_tx", raw_pose(cp.retry_tx));
  io.f64s("retry_rx", raw_pose(cp.retry_rx));
}

}  // namespace

void write_engine_checkpoint(std::ostream& out, const EngineCheckpoint& cp) {
  out << kMagic << '\n';
  core::persist::RecordWriter writer(out);
  checkpoint_records(writer, cp);
}

EngineCheckpoint read_engine_checkpoint(std::istream& in) {
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) {
    core::persist::fail(
        1, "not a cyclops calibration-engine checkpoint header: '" + magic +
               "' (expected '" + kMagic + "')");
  }
  EngineCheckpoint cp;
  core::persist::RecordReader reader(in);
  checkpoint_records(reader, cp);
  return cp;
}

void save_engine_checkpoint(const std::filesystem::path& path,
                            const EngineCheckpoint& cp) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  write_engine_checkpoint(out, cp);
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

EngineCheckpoint load_engine_checkpoint(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return read_engine_checkpoint(in);
}

}  // namespace cyclops::cal
