#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>

#include "motion/profile.hpp"
#include "motion/trace.hpp"
#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cyclops::motion {
namespace {

const geom::Pose kBase{geom::Mat3::rotation({0, 1, 0}, 0.3), {0.0, 0.8, 1.2}};

// ---- profiles ----

TEST(StillMotionTest, NeverMoves) {
  const StillMotion profile(kBase, 5.0);
  EXPECT_DOUBLE_EQ(profile.duration_s(), 5.0);
  const Speeds s = measure_speeds(profile, util::us_from_s(2.0));
  EXPECT_DOUBLE_EQ(s.linear_mps, 0.0);
  EXPECT_DOUBLE_EQ(s.angular_rps, 0.0);
}

TEST(LinearStrokeTest, TravelsFullStroke) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1});
  const geom::Vec3 start = profile.pose_at(0).translation();
  EXPECT_NEAR(start.x, kBase.translation().x - 0.25, 1e-9);
  // Stroke of 0.5 m at 0.1 m/s takes 5 s.
  const geom::Vec3 end = profile.pose_at(util::us_from_s(5.0)).translation();
  EXPECT_NEAR(end.x, kBase.translation().x + 0.25, 1e-6);
}

TEST(LinearStrokeTest, SpeedMatchesSchedule) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1, 0.2});
  // Mid-first-stroke.
  const Speeds s1 = measure_speeds(profile, util::us_from_s(2.5));
  EXPECT_NEAR(s1.linear_mps, 0.1, 1e-3);
  EXPECT_NEAR(s1.angular_rps, 0.0, 1e-9);
  // Second stroke starts at 5 + 0.25 rest; takes 2.5 s.
  const Speeds s2 = measure_speeds(profile, util::us_from_s(6.5));
  EXPECT_NEAR(s2.linear_mps, 0.2, 1e-2);
}

TEST(LinearStrokeTest, RestsBetweenStrokes) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1, 0.1}, 0.5);
  // Rest window right after the first stroke (5.0 .. 5.5 s).
  const geom::Vec3 a = profile.pose_at(util::us_from_s(5.1)).translation();
  const geom::Vec3 b = profile.pose_at(util::us_from_s(5.4)).translation();
  EXPECT_NEAR(geom::distance(a, b), 0.0, 1e-12);
}

TEST(LinearStrokeTest, OrientationNeverChanges) {
  const LinearStrokeMotion profile(kBase, {0, 0, 1}, 0.2, {0.15, 0.3});
  for (double t : {0.0, 1.0, 3.0, 6.0}) {
    EXPECT_NEAR(geom::rotation_distance(
                    kBase, profile.pose_at(util::us_from_s(t))),
                0.0, 1e-12);
  }
}

TEST(AngularStrokeTest, SpeedMatchesSchedule) {
  const double w = util::deg_to_rad(10.0);
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, util::deg_to_rad(20.0),
                                    {w});
  const Speeds s = measure_speeds(profile, util::us_from_s(1.0));
  EXPECT_NEAR(s.angular_rps, w, w * 0.02);
  EXPECT_NEAR(s.linear_mps, 0.0, 1e-9);
}

TEST(AngularStrokeTest, PositionFixed) {
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, 0.3, {0.2, 0.4});
  for (double t : {0.0, 0.7, 1.9, 3.0}) {
    EXPECT_NEAR(geom::distance(profile.pose_at(util::us_from_s(t)).translation(),
                               kBase.translation()),
                0.0, 1e-12);
  }
}

TEST(AngularStrokeTest, SweepsExpectedAngle) {
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, 0.25, {0.25});
  const geom::Pose start = profile.pose_at(0);
  const geom::Pose end = profile.pose_at(util::us_from_s(2.0));
  EXPECT_NEAR(geom::rotation_distance(start, end), 0.5, 1e-3);
}

TEST(IncreasingSpeedsTest, BuildsSchedule) {
  const auto speeds = increasing_speeds(0.05, 0.05, 0.25);
  ASSERT_EQ(speeds.size(), 5u);
  EXPECT_DOUBLE_EQ(speeds.front(), 0.05);
  EXPECT_DOUBLE_EQ(speeds.back(), 0.25);
}

TEST(MixedRandomTest, RespectsSpeedCaps) {
  MixedRandomMotion::Config config;
  config.duration_s = 20.0;
  config.max_linear_speed = 0.3;
  config.max_angular_speed = 0.4;
  const MixedRandomMotion profile(kBase, config, util::Rng(3));
  for (double t = 0.1; t < 19.9; t += 0.05) {
    const Speeds s = measure_speeds(profile, util::us_from_s(t));
    EXPECT_LT(s.linear_mps, 0.45);   // cap + interpolation slack
    EXPECT_LT(s.angular_rps, 0.6);
  }
}

TEST(MixedRandomTest, StaysNearBase) {
  MixedRandomMotion::Config config;
  config.duration_s = 30.0;
  const MixedRandomMotion profile(kBase, config, util::Rng(5));
  for (double t = 0; t < 30.0; t += 0.5) {
    const double excursion = geom::distance(
        profile.pose_at(util::us_from_s(t)).translation(),
        kBase.translation());
    EXPECT_LT(excursion, 0.6);
  }
}

TEST(MixedRandomTest, ActuallyMoves) {
  MixedRandomMotion::Config config;
  const MixedRandomMotion profile(kBase, config, util::Rng(7));
  util::RunningStats lin;
  for (double t = 0.5; t < 25.0; t += 0.25) {
    lin.add(measure_speeds(profile, util::us_from_s(t)).linear_mps);
  }
  EXPECT_GT(lin.mean(), 0.01);
}

TEST(MixedRandomTest, DeterministicPerSeed) {
  MixedRandomMotion::Config config;
  const MixedRandomMotion a(kBase, config, util::Rng(11));
  const MixedRandomMotion b(kBase, config, util::Rng(11));
  const MixedRandomMotion c(kBase, config, util::Rng(12));
  const auto t = util::us_from_s(3.0);
  EXPECT_DOUBLE_EQ(
      geom::translation_distance(a.pose_at(t), b.pose_at(t)), 0.0);
  EXPECT_GT(geom::translation_distance(a.pose_at(t), c.pose_at(t)), 0.0);
}

// ---- traces ----

Trace tiny_trace() {
  Trace trace;
  for (int i = 0; i <= 10; ++i) {
    const double t_ms = i * 10.0;
    trace.samples.push_back(
        {util::us_from_ms(t_ms),
         geom::Pose{geom::Mat3::rotation({0, 1, 0}, 0.01 * i),
                    {0.001 * i, 0.8, 1.2}}});
  }
  return trace;
}

TEST(TraceTest, PoseAtInterpolates) {
  const Trace trace = tiny_trace();
  const geom::Pose mid = trace.pose_at(util::us_from_ms(5.0));
  EXPECT_NEAR(mid.translation().x, 0.0005, 1e-9);
  EXPECT_NEAR(geom::rotation_distance(trace.samples[0].pose, mid), 0.005,
              1e-6);
}

TEST(TraceTest, PoseAtClampsEnds) {
  const Trace trace = tiny_trace();
  EXPECT_NEAR(geom::translation_distance(trace.pose_at(-5),
                                         trace.samples.front().pose),
              0.0, 1e-12);
  EXPECT_NEAR(
      geom::translation_distance(trace.pose_at(util::us_from_s(100.0)),
                                 trace.samples.back().pose),
      0.0, 1e-12);
}

TEST(TraceTest, CsvRoundTrip) {
  const Trace trace = tiny_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "cyclops_trace_test.csv";
  trace.save_csv(path);
  const Trace loaded = Trace::load_csv(path);
  ASSERT_EQ(loaded.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    EXPECT_EQ(loaded.samples[i].time, trace.samples[i].time);
    EXPECT_LT(geom::translation_distance(loaded.samples[i].pose,
                                         trace.samples[i].pose),
              1e-9);
    EXPECT_LT(geom::rotation_distance(loaded.samples[i].pose,
                                      trace.samples[i].pose),
              1e-6);
  }
  std::filesystem::remove(path);
}

TEST(TraceTest, ComputeSpeeds) {
  const Trace trace = tiny_trace();
  const TraceSpeeds speeds = compute_speeds(trace);
  ASSERT_EQ(speeds.linear_mps.size(), 10u);
  // 1 mm per 10 ms = 0.1 m/s; 0.01 rad per 10 ms = 1 rad/s.
  EXPECT_NEAR(speeds.linear_mps[3], 0.1, 1e-6);
  EXPECT_NEAR(speeds.angular_rps[3], 1.0, 1e-4);
}

TEST(TraceMotionTest, WrapsTrace) {
  const TraceMotion profile(tiny_trace());
  EXPECT_NEAR(profile.duration_s(), 0.1, 1e-9);
  EXPECT_NEAR(profile.pose_at(util::us_from_ms(10.0)).translation().x, 0.001,
              1e-9);
}

// ---- generator ----

TEST(TraceGeneratorTest, ShapeMatchesDatasetSpec) {
  util::Rng rng(1);
  TraceGeneratorConfig config;
  config.duration_s = 60.0;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  // 1 min at 10 ms = 6000 samples (+1 fencepost).
  EXPECT_NEAR(static_cast<double>(trace.samples.size()), 6001.0, 2.0);
  EXPECT_NEAR(trace.duration_s(), 60.0, 0.1);
}

TEST(TraceGeneratorTest, SpeedsRespectFig3Caps) {
  util::Rng rng(2);
  TraceGeneratorConfig config;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  for (double v : speeds.linear_mps) EXPECT_LE(v, 0.145);
  for (double w : speeds.angular_rps) EXPECT_LE(w, 0.34);
}

TEST(TraceGeneratorTest, SpeedsAreNontrivial) {
  util::Rng rng(3);
  const Trace trace = generate_viewing_trace(kBase, {}, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  EXPECT_GT(util::mean(speeds.angular_rps), util::deg_to_rad(0.5));
  EXPECT_GT(util::mean(speeds.linear_mps), 0.002);
}

TEST(TraceGeneratorTest, MedianSpeedsInFig3Band) {
  // Fig 3: medians of a seated 360° viewer are a few deg/s and ~1-2 cm/s.
  util::Rng rng(4);
  std::vector<double> lin, ang;
  for (int i = 0; i < 10; ++i) {
    util::Rng trng = rng.split();
    const Trace trace = generate_viewing_trace(kBase, {}, trng);
    const TraceSpeeds speeds = compute_speeds(trace);
    lin.insert(lin.end(), speeds.linear_mps.begin(), speeds.linear_mps.end());
    ang.insert(ang.end(), speeds.angular_rps.begin(),
               speeds.angular_rps.end());
  }
  const double lin_median = util::percentile(lin, 50.0);
  const double ang_median_deg = util::rad_to_deg(util::percentile(ang, 50.0));
  EXPECT_GT(lin_median, 0.002);
  EXPECT_LT(lin_median, 0.05);
  EXPECT_GT(ang_median_deg, 0.5);
  EXPECT_LT(ang_median_deg, 8.0);
}

TEST(TraceGeneratorTest, DatasetHasRequestedCountAndVariety) {
  util::Rng rng(5);
  const auto traces = generate_dataset(kBase, 20, {}, rng);
  ASSERT_EQ(traces.size(), 20u);
  // Different viewers behave differently.
  const TraceSpeeds a = compute_speeds(traces[0]);
  const TraceSpeeds b = compute_speeds(traces[1]);
  EXPECT_NE(util::mean(a.angular_rps), util::mean(b.angular_rps));
}

TEST(TraceGeneratorTest, PitchStaysComfortable) {
  util::Rng rng(6);
  TraceGeneratorConfig config;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 100) {
    EXPECT_LT(geom::rotation_distance(kBase, trace.samples[i].pose), 2.2);
  }
}


// ---- walking generator ----

TEST(WalkingTraceTest, StaysInsideTheBox) {
  util::Rng rng(1);
  motion::WalkingConfig config;
  config.area_half_extent = 0.5;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 50) {
    const geom::Vec3 local =
        kBase.rotation().transposed() *
        (trace.samples[i].pose.translation() - kBase.translation());
    EXPECT_LT(std::abs(local.x), 0.56);
    EXPECT_LT(std::abs(local.z), 0.56);
    EXPECT_NEAR(local.y, 0.0, 1e-9);  // walking stays at head height
  }
}

TEST(WalkingTraceTest, WalkSpeedsInConfiguredBand) {
  util::Rng rng(2);
  motion::WalkingConfig config;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  double max_lin = 0.0;
  for (double v : speeds.linear_mps) max_lin = std::max(max_lin, v);
  EXPECT_GT(max_lin, config.walk_speed_min);
  EXPECT_LT(max_lin, config.walk_speed_max + 0.05);
}

TEST(WalkingTraceTest, ForwardFacingKeepsYawBounded) {
  util::Rng rng(3);
  motion::WalkingConfig config;  // face_walk_direction = false
  const Trace trace = generate_walking_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 100) {
    EXPECT_LT(geom::rotation_distance(kBase, trace.samples[i].pose), 0.9);
  }
}

TEST(WalkingTraceTest, FreeRoamingYawsAlongWalk) {
  util::Rng rng(4);
  motion::WalkingConfig config;
  config.face_walk_direction = true;
  config.duration_s = 90.0;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  double max_rotation = 0.0;
  for (const auto& s : trace.samples) {
    max_rotation =
        std::max(max_rotation, geom::rotation_distance(kBase, s.pose));
  }
  // Roaming eventually faces well away from the base forward.
  EXPECT_GT(max_rotation, 1.0);
}

TEST(WalkingTraceTest, AngularSpeedsArePhysical) {
  util::Rng rng(5);
  const Trace trace = generate_walking_trace(kBase, {}, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  for (double w : speeds.angular_rps) {
    EXPECT_LT(w, util::deg_to_rad(120.0));  // no white-noise head spins
  }
}

// ---- output bits ----
//
// FNV-1a over the raw bits of every pose the generators emit, pinned to
// the values the per-sample Mat3::rotation code produced.  Any change to
// the rotation arithmetic that moves a single ulp moves these hashes.

class PoseHash {
 public:
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(util::SimTimeUs t, const geom::Pose& pose) {
    add(static_cast<double>(t));
    for (const auto& row : pose.rotation().m) {
      for (double v : row) add(v);
    }
    add(pose.translation().x);
    add(pose.translation().y);
    add(pose.translation().z);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

constexpr std::uint64_t kSeeds[] = {1, 29, 2022};

/// A base tilted about a generic axis, so no head axis lies along a
/// coordinate axis (where reassociated products would agree exactly).
const geom::Pose kTiltedBase{geom::Mat3::rotation({0.3, 1.0, -0.2}, 0.7),
                             {0.1, 0.8, 1.2}};

std::uint64_t viewing_hash(std::uint64_t seed) {
  util::Rng rng(seed);
  TraceGeneratorConfig config;
  config.duration_s = 5.0;
  PoseHash hash;
  for (const auto& s :
       generate_viewing_trace(kTiltedBase, config, rng).samples) {
    hash.add(s.time, s.pose);
  }
  return hash.value();
}

std::uint64_t walking_hash(std::uint64_t seed) {
  util::Rng rng(seed);
  WalkingConfig config;
  config.duration_s = 5.0;
  config.face_walk_direction = true;
  PoseHash hash;
  for (const auto& s :
       generate_walking_trace(kTiltedBase, config, rng).samples) {
    hash.add(s.time, s.pose);
  }
  return hash.value();
}

std::uint64_t angular_stroke_hash(std::uint64_t seed) {
  util::Rng rng(seed);
  const geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  const AngularStrokeMotion profile(kTiltedBase, axis, rng.uniform(0.1, 0.5),
                                    {rng.uniform(0.1, 0.4),
                                     rng.uniform(0.4, 0.8)},
                                    0.1);
  PoseHash hash;
  for (util::SimTimeUs t = 0; t <= util::us_from_s(profile.duration_s());
       t += 7919) {
    hash.add(t, profile.pose_at(t));
  }
  return hash.value();
}

TEST(MotionBitsTest, ViewingTraceBitsArePinned) {
  const std::uint64_t expected[] = {
      2353792705325701241ull, 4537931820610066442ull, 9826461156400203610ull};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(viewing_hash(kSeeds[i]), expected[i]) << "seed " << kSeeds[i];
  }
}

TEST(MotionBitsTest, WalkingTraceBitsArePinned) {
  const std::uint64_t expected[] = {
      9494904712766831091ull, 99997652168990894ull, 5934191693476662875ull};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(walking_hash(kSeeds[i]), expected[i]) << "seed " << kSeeds[i];
  }
}

TEST(MotionBitsTest, AngularStrokeBitsArePinned) {
  const std::uint64_t expected[] = {
      17180998180232109285ull, 10384835470264131910ull, 14958352921375148462ull};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(angular_stroke_hash(kSeeds[i]), expected[i])
        << "seed " << kSeeds[i];
  }
}

}  // namespace
}  // namespace cyclops::motion
