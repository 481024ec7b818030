#include "core/persistence.hpp"

#include <array>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/record_codec.hpp"

namespace cyclops::core {
namespace {

constexpr const char* kMagicV1 = "cyclops-calibration v1";
constexpr const char* kMagicV2 = "cyclops-calibration v2";

/// The file's records as plain values: the packed Stage-1 models, the
/// mappings' 6-parameter vectors, and the fit statistics (tx_avg tx_max
/// rx_avg rx_max coincidence_avg coincidence_max).
struct CalibrationRecords {
  std::array<double, galvo::GalvoParams::kParamCount> tx_model{}, rx_model{};
  std::array<double, 6> map_tx{}, map_rx{};
  std::array<double, 6> stats{};
};

template <class Io, class R>
void calibration_records(Io& io, R& r) {
  io.f64s("tx_model", r.tx_model);
  io.f64s("rx_model", r.rx_model);
  io.f64s("map_tx", r.map_tx);
  io.f64s("map_rx", r.map_rx);
  io.f64s("stats", r.stats);
}

}  // namespace

void save_calibration(const std::filesystem::path& path,
                      const CalibrationResult& calibration) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const CalibrationRecords records{
      calibration.tx_stage1.model.params().pack(),
      calibration.rx_stage1.model.params().pack(),
      calibration.mapping.map_tx.params(),
      calibration.mapping.map_rx.params(),
      {calibration.tx_stage1.avg_error_m, calibration.tx_stage1.max_error_m,
       calibration.rx_stage1.avg_error_m, calibration.rx_stage1.max_error_m,
       calibration.mapping.avg_coincidence_m,
       calibration.mapping.max_coincidence_m}};
  out << kMagicV2 << '\n';
  persist::RecordWriter writer(out);
  calibration_records(writer, records);
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

CalibrationResult load_calibration(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::string magic;
  std::getline(in, magic);
  // v2 is a header bump (same records); v1 files keep loading.
  if (magic != kMagicV1 && magic != kMagicV2) {
    persist::fail(1, "not a cyclops calibration header: '" + magic +
                         "' (expected '" + kMagicV1 + "' or '" + kMagicV2 +
                         "')");
  }
  CalibrationRecords r;
  persist::RecordReader reader(in);
  calibration_records(reader, r);
  const auto model = [](const auto& packed) {
    return GmaModel(galvo::GalvoParams::unpack(packed));
  };
  return {KSpaceFitReport{model(r.tx_model), r.stats[0], r.stats[1], 0, true},
          KSpaceFitReport{model(r.rx_model), r.stats[2], r.stats[3], 0, true},
          MappingFitReport{geom::Pose::from_params(r.map_tx),
                           geom::Pose::from_params(r.map_rx), r.stats[4],
                           r.stats[5], 0, true},
          {}};
}

}  // namespace cyclops::core
