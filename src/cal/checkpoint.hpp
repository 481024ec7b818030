// Calibration-engine checkpoints: the full CalibrationEngine state as a
// value, serializable to a line-oriented text file so an interrupted
// calibration survives a power cycle and resumes bit-exactly.
//
//   cyclops-cal-checkpoint v1
//   state         <9 u64: phase steps stage2_i blind_a blind_b
//                         retry_attempt lm_active tx_report rx_report>
//   rng_state     <4 u64>
//   rng_normal    <2 doubles>
//   collector     <4 doubles>
//   tx_report     <29 doubles>    (zeros when the state flag says absent)
//   rx_report     <29 doubles>
//   tx_samples_n  <1 u64>
//   tx_samples    <4n doubles>
//   ... (fixed record sequence: checkpoint_records in checkpoint.cpp is
//        the format — one list that both the writer and the reader walk)
//
// The format deliberately has its own magic — it is NOT a version bump of
// the `cyclops-calibration` result file (core/persistence.hpp), which
// stores only the finished models.  Doubles round-trip exactly (17
// significant digits); RNG words are written as decimal u64 and parsed
// with std::from_chars, because a double cannot hold values above 2^53
// without corruption.  Poses serialize as 9 rotation-matrix entries plus
// the translation — the rotation-vector form (Pose::params) is not
// bit-exact through a round-trip.  Malformed files — truncation, garbled
// fields, wrong counts, unknown versions — are rejected with a
// std::runtime_error naming the 1-based line, never loaded silently.
//
// A checkpoint restores into an engine built against the *same*
// prototype/config/context (the prototype's tracker and flex state are
// live rig state, not engine state).
#pragma once

#include <filesystem>
#include <iosfwd>

#include "cal/engine.hpp"

namespace cyclops::cal {

// EngineCheckpoint, the engine's state as a value, is declared in
// cal/engine.hpp.

void write_engine_checkpoint(std::ostream& out, const EngineCheckpoint& cp);
EngineCheckpoint read_engine_checkpoint(std::istream& in);

/// File convenience wrappers.  Throw std::runtime_error on I/O or format
/// errors.
void save_engine_checkpoint(const std::filesystem::path& path,
                            const EngineCheckpoint& cp);
EngineCheckpoint load_engine_checkpoint(const std::filesystem::path& path);

}  // namespace cyclops::cal
