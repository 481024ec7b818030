// The two calibration residuals as they were before their stages were
// memoized, kept only as the oracle that make_kspace_problem and
// make_mapping_problem are pinned against bit for bit
// (tests/core_fit_cache_test): every evaluation builds its models and
// traces every sample through every stage of G and of Lemma 1.
#pragma once

#include <span>
#include <vector>

#include "core/gma_model.hpp"
#include "core/kspace_calibration.hpp"
#include "core/mapping_calibration.hpp"

namespace cyclops::oracle {

/// Stage 1: each sample's board-plane hit error (x, y), or (1, 1) for a
/// degenerate trace, at the 25 packed GalvoParams.
void kspace_residuals(const std::vector<core::BoardSample>& samples,
                      std::span<const double> params,
                      std::vector<double>& residuals);

/// Stage 2: each sample's Lemma-1 vectors tau_r - p_t and tau_t - p_r, or
/// six 1s when invalid, at the 12 packed mapping parameters (map_tx's 6,
/// then map_rx's 6).
void mapping_residuals(const core::GmaModel& tx_kspace,
                       const core::GmaModel& rx_kspace,
                       const std::vector<core::AlignedSample>& samples,
                       std::span<const double> params,
                       std::vector<double>& residuals);

}  // namespace cyclops::oracle
