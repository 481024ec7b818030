#include <gtest/gtest.h>
#include "core/calibration.hpp"
#include "core/evaluation.hpp"
namespace cyclops::core {
namespace {

TEST(BlindMappingTest, SelfCalibratesWithoutManualMeasurement) {
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);

  // The full install with a blind Stage 2: the manual guesses are drawn
  // but never used; the mapping comes from the multi-start search alone.
  CalibrationConfig config;
  config.stage2_samples = 25;
  config.pose_position_extent = 0.18;
  config.pose_angle_extent = 0.10;
  config.blind_stage2 = true;
  const CalibrationResult calib = calibrate_prototype(proto, config, rng);
  ASSERT_GE(calib.stage2_samples.size(), 20u);

  const MappingFitReport& mapping = calib.mapping;
  EXPECT_LT(mapping.avg_coincidence_m, 20e-3);

  // The resulting pointing must bring the link up at a fresh pose.
  PointingSolver solver(calib.tx_stage1.model, calib.rx_stage1.model,
                        mapping.map_tx, mapping.map_rx, PointingOptions{});
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  const geom::Pose psi =
      proto.tracker.report(0, proto.nominal_rig_pose).pose;
  const PointingResult p = solver.solve(psi, {});
  ASSERT_TRUE(p.converged);
  EXPECT_GE(proto.scene.received_power_dbm(p.voltages),
            proto.scene.config().sfp.rx_sensitivity_dbm);
}

}  // namespace
}  // namespace cyclops::core
