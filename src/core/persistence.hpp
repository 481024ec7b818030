// Calibration persistence.
//
// Stage 1 runs at the factory and Stage 2 once per deployment (§4's
// "offline vs online training"); a real system must reload both across
// power cycles and only re-run Stage 2 on re-deployment or VRH-T drift.
// The file format is a line-oriented text format:
//
//   cyclops-calibration v2
//   tx_model  <25 doubles>
//   rx_model  <25 doubles>
//   map_tx    <6 doubles>
//   map_rx    <6 doubles>
//   stats     <tx_avg tx_max rx_avg rx_max coincidence_avg coincidence_max>
//
// v2 is a header bump over v1 (identical records); the loader accepts
// both.  Malformed files — truncation, wrong value counts, non-finite or
// non-numeric fields — are rejected with a std::runtime_error naming the
// 1-based line and field.  The records are read and written by the codec
// the engine checkpoint also uses (core/record_codec.hpp).
#pragma once

#include <filesystem>

#include "core/calibration.hpp"

namespace cyclops::core {

/// Writes the learned models and mappings.  Throws std::runtime_error on
/// I/O failure.
void save_calibration(const std::filesystem::path& path,
                      const CalibrationResult& calibration);

/// Reads a file written by save_calibration.  The returned result carries
/// the learned models, mappings, and stats; the raw Stage-2 tuples are
/// not persisted.  Throws std::runtime_error on I/O or format errors.
CalibrationResult load_calibration(const std::filesystem::path& path);

}  // namespace cyclops::core
