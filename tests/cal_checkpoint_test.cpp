// Round-trip property tests for the calibration-engine checkpoint file
// (cal/checkpoint.hpp): randomized EngineCheckpoint values must survive
// write -> read bit-exactly (including RNG words above 2^53, which a
// double cannot carry), and malformed inputs — truncation, garbled
// fields, wrong version, wrong counts, signed integers — must be
// rejected with a std::runtime_error naming the 1-based line, never
// loaded silently.  Golden-bytes tests pin the text written at every
// phase of real installs.
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cal/checkpoint.hpp"
#include "cal/engine.hpp"
#include "core/kspace_calibration.hpp"
#include "geom/pose.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

using namespace cyclops;
using cal::EngineCheckpoint;

namespace {

geom::Pose random_pose(util::Rng& rng) {
  geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  if (axis.norm() < 1e-9) axis = {1.0, 0.0, 0.0};
  return {geom::Mat3::rotation(axis.normalized(), rng.uniform(-2.0, 2.0)),
          {rng.normal(), rng.normal(), rng.normal()}};
}

core::KSpaceFitReport random_kspace_report(util::Rng& rng) {
  // One pack/unpack cycle canonicalizes the model (unpack re-normalizes
  // direction vectors) — every model the real pipeline produces has been
  // through unpack, so this is the representative input.
  const core::GmaModel canonical(galvo::GalvoParams::unpack(
      core::nominal_kspace_guess(rng.uniform(1.0, 2.0)).params().pack()));
  return {canonical, rng.normal(), rng.normal(),
          static_cast<int>(rng.uniform(0.0, 100.0)),
          rng.uniform(0.0, 1.0) < 0.5};
}

core::MappingFitReport random_mapping_report(util::Rng& rng) {
  return {random_pose(rng), random_pose(rng), rng.normal(), rng.normal(),
          static_cast<int>(rng.uniform(0.0, 100.0)),
          rng.uniform(0.0, 1.0) < 0.5};
}

EngineCheckpoint random_checkpoint(std::uint64_t seed) {
  util::Rng rng(seed);
  EngineCheckpoint cp;
  cp.phase = static_cast<int>(rng.uniform(0.0, 9.999));
  cp.steps = rng.next_u64();
  // Raw xoshiro words regularly exceed 2^53 — the exact case a
  // double-typed field would corrupt.
  for (auto& word : cp.rng.s) word = rng.next_u64() | (1ull << 63);
  cp.rng.cached_normal = rng.normal();
  cp.rng.has_cached_normal = rng.uniform(0.0, 1.0) < 0.5;

  cp.collector = {static_cast<int>(rng.uniform(1.0, 19.0)),
                  static_cast<int>(rng.uniform(1.0, 14.0)), rng.normal(),
                  rng.normal()};
  const int n_tx = static_cast<int>(rng.uniform(0.0, 5.0));
  for (int i = 0; i < n_tx; ++i) {
    cp.tx_samples.push_back(
        {rng.normal(), rng.normal(), rng.normal(), rng.normal()});
  }
  const int n_rx = static_cast<int>(rng.uniform(0.0, 5.0));
  for (int i = 0; i < n_rx; ++i) {
    cp.rx_samples.push_back(
        {rng.normal(), rng.normal(), rng.normal(), rng.normal()});
  }
  if (rng.uniform(0.0, 1.0) < 0.7) cp.tx_report = random_kspace_report(rng);
  if (rng.uniform(0.0, 1.0) < 0.7) cp.rx_report = random_kspace_report(rng);

  cp.lm_active = rng.uniform(0.0, 1.0) < 0.5;
  const int n_lm = static_cast<int>(rng.uniform(0.0, 25.0));
  for (int i = 0; i < n_lm; ++i) cp.lm.params.push_back(rng.normal());
  cp.lm.lambda = rng.uniform(0.0, 10.0);
  cp.lm.initial_cost = rng.uniform(0.0, 1.0);
  cp.lm.iterations = static_cast<int>(rng.uniform(0.0, 200.0));
  cp.lm.converged = rng.uniform(0.0, 1.0) < 0.5;

  const int n_tuples = static_cast<int>(rng.uniform(0.0, 4.0));
  for (int i = 0; i < n_tuples; ++i) {
    cp.tuples.push_back(
        {sim::Voltages{rng.normal(), rng.normal(), rng.normal(), rng.normal()},
         random_pose(rng)});
  }
  cp.hint = {rng.normal(), rng.normal(), rng.normal(), rng.normal()};
  cp.stage2_i = static_cast<int>(rng.uniform(0.0, 30.0));
  cp.tx_guess = random_pose(rng);
  cp.rx_guess = random_pose(rng);
  cp.mapping = random_mapping_report(rng);

  cp.blind_centroid = {rng.normal(), rng.normal(), rng.normal()};
  cp.blind_a = static_cast<int>(rng.uniform(0.0, 50.0));
  cp.blind_b = static_cast<int>(rng.uniform(0.0, 50.0));
  for (auto& v : cp.blind_tx_best) v = rng.normal();
  cp.blind_tx_best_value = rng.uniform(0.0, 1e6);
  cp.blind_tx_seed = random_pose(rng);
  cp.blind_best = random_mapping_report(rng);
  cp.blind_best_value = rng.uniform(0.0, 1e6);

  cp.retry_attempt = static_cast<int>(rng.uniform(0.0, 10.0));
  cp.retry_tx = random_pose(rng);
  cp.retry_rx = random_pose(rng);
  return cp;
}

void expect_pose_eq(const geom::Pose& a, const geom::Pose& b) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(a.rotation().m[i][j], b.rotation().m[i][j]);
  }
  EXPECT_EQ(a.translation().x, b.translation().x);
  EXPECT_EQ(a.translation().y, b.translation().y);
  EXPECT_EQ(a.translation().z, b.translation().z);
}

void expect_kspace_report_eq(const std::optional<core::KSpaceFitReport>& a,
                             const std::optional<core::KSpaceFitReport>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  const auto pa = a->model.params().pack();
  const auto pb = b->model.params().pack();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  EXPECT_EQ(a->avg_error_m, b->avg_error_m);
  EXPECT_EQ(a->max_error_m, b->max_error_m);
  EXPECT_EQ(a->optimizer_iterations, b->optimizer_iterations);
  EXPECT_EQ(a->converged, b->converged);
}

void expect_mapping_report_eq(const core::MappingFitReport& a,
                              const core::MappingFitReport& b) {
  expect_pose_eq(a.map_tx, b.map_tx);
  expect_pose_eq(a.map_rx, b.map_rx);
  EXPECT_EQ(a.avg_coincidence_m, b.avg_coincidence_m);
  EXPECT_EQ(a.max_coincidence_m, b.max_coincidence_m);
  EXPECT_EQ(a.optimizer_iterations, b.optimizer_iterations);
  EXPECT_EQ(a.converged, b.converged);
}

void expect_checkpoint_eq(const EngineCheckpoint& a, const EngineCheckpoint& b) {
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.steps, b.steps);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.rng.has_cached_normal, b.rng.has_cached_normal);

  EXPECT_EQ(a.collector.i, b.collector.i);
  EXPECT_EQ(a.collector.j, b.collector.j);
  EXPECT_EQ(a.collector.v1, b.collector.v1);
  EXPECT_EQ(a.collector.v2, b.collector.v2);

  ASSERT_EQ(a.tx_samples.size(), b.tx_samples.size());
  for (std::size_t i = 0; i < a.tx_samples.size(); ++i) {
    EXPECT_EQ(a.tx_samples[i].x, b.tx_samples[i].x);
    EXPECT_EQ(a.tx_samples[i].y, b.tx_samples[i].y);
    EXPECT_EQ(a.tx_samples[i].v1, b.tx_samples[i].v1);
    EXPECT_EQ(a.tx_samples[i].v2, b.tx_samples[i].v2);
  }
  ASSERT_EQ(a.rx_samples.size(), b.rx_samples.size());
  for (std::size_t i = 0; i < a.rx_samples.size(); ++i) {
    EXPECT_EQ(a.rx_samples[i].x, b.rx_samples[i].x);
    EXPECT_EQ(a.rx_samples[i].v2, b.rx_samples[i].v2);
  }
  expect_kspace_report_eq(a.tx_report, b.tx_report);
  expect_kspace_report_eq(a.rx_report, b.rx_report);

  EXPECT_EQ(a.lm_active, b.lm_active);
  ASSERT_EQ(a.lm.params.size(), b.lm.params.size());
  for (std::size_t i = 0; i < a.lm.params.size(); ++i) {
    EXPECT_EQ(a.lm.params[i], b.lm.params[i]);
  }
  EXPECT_EQ(a.lm.lambda, b.lm.lambda);
  EXPECT_EQ(a.lm.initial_cost, b.lm.initial_cost);
  EXPECT_EQ(a.lm.iterations, b.lm.iterations);
  EXPECT_EQ(a.lm.converged, b.lm.converged);

  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  for (std::size_t i = 0; i < a.tuples.size(); ++i) {
    EXPECT_EQ(a.tuples[i].voltages.tx1, b.tuples[i].voltages.tx1);
    EXPECT_EQ(a.tuples[i].voltages.rx2, b.tuples[i].voltages.rx2);
    expect_pose_eq(a.tuples[i].psi, b.tuples[i].psi);
  }
  EXPECT_EQ(a.hint.tx1, b.hint.tx1);
  EXPECT_EQ(a.hint.rx2, b.hint.rx2);
  EXPECT_EQ(a.stage2_i, b.stage2_i);
  expect_pose_eq(a.tx_guess, b.tx_guess);
  expect_pose_eq(a.rx_guess, b.rx_guess);
  expect_mapping_report_eq(a.mapping, b.mapping);

  EXPECT_EQ(a.blind_centroid.x, b.blind_centroid.x);
  EXPECT_EQ(a.blind_centroid.y, b.blind_centroid.y);
  EXPECT_EQ(a.blind_centroid.z, b.blind_centroid.z);
  EXPECT_EQ(a.blind_a, b.blind_a);
  EXPECT_EQ(a.blind_b, b.blind_b);
  for (std::size_t i = 0; i < a.blind_tx_best.size(); ++i) {
    EXPECT_EQ(a.blind_tx_best[i], b.blind_tx_best[i]);
  }
  EXPECT_EQ(a.blind_tx_best_value, b.blind_tx_best_value);
  expect_pose_eq(a.blind_tx_seed, b.blind_tx_seed);
  expect_mapping_report_eq(a.blind_best, b.blind_best);
  EXPECT_EQ(a.blind_best_value, b.blind_best_value);

  EXPECT_EQ(a.retry_attempt, b.retry_attempt);
  expect_pose_eq(a.retry_tx, b.retry_tx);
  expect_pose_eq(a.retry_rx, b.retry_rx);
}

std::string serialize(const EngineCheckpoint& cp) {
  std::ostringstream out;
  cal::write_engine_checkpoint(out, cp);
  return out.str();
}

EngineCheckpoint parse(const std::string& text) {
  std::istringstream in(text);
  return cal::read_engine_checkpoint(in);
}

/// Expects parse(text) to throw a runtime_error whose message contains
/// both `line_tag` (e.g. "line 3") and `fragment`.
void expect_parse_error(const std::string& text, const std::string& line_tag,
                        const std::string& fragment) {
  try {
    parse(text);
    FAIL() << "expected a parse error mentioning '" << fragment << "'";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(line_tag), std::string::npos)
        << "message '" << what << "' lacks '" << line_tag << "'";
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "message '" << what << "' lacks '" << fragment << "'";
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---- round-trip property ----

TEST(CalCheckpointTest, RandomizedRoundTripIsBitExact) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EngineCheckpoint cp = random_checkpoint(seed);
    expect_checkpoint_eq(cp, parse(serialize(cp)));
  }
}

TEST(CalCheckpointTest, FileSaveLoadRoundTrip) {
  const EngineCheckpoint cp = random_checkpoint(99);
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "engine.ckpt";
  cal::save_engine_checkpoint(path, cp);
  expect_checkpoint_eq(cp, cal::load_engine_checkpoint(path));
  std::filesystem::remove(path);
}

TEST(CalCheckpointTest, LoadOfMissingFileThrows) {
  EXPECT_THROW(cal::load_engine_checkpoint("/nonexistent/engine.ckpt"),
               std::runtime_error);
}

// ---- negatives: every rejection names the offending line ----

TEST(CalCheckpointTest, EmptyInputRejectedAtLine1) {
  expect_parse_error("", "line 1", "not a cyclops calibration-engine");
}

TEST(CalCheckpointTest, WrongVersionRejectedAtLine1) {
  auto lines = split_lines(serialize(random_checkpoint(1)));
  lines[0] = "cyclops-cal-checkpoint v2";
  expect_parse_error(join_lines(lines), "line 1", "expected 'cyclops-cal-checkpoint v1'");
}

TEST(CalCheckpointTest, ResultFileMagicIsNotACheckpoint) {
  // The finished-calibration persistence format must not silently load as
  // an engine checkpoint (deliberately distinct magics).
  expect_parse_error("cyclops-calibration v1\n", "line 1",
                     "not a cyclops calibration-engine");
}

TEST(CalCheckpointTest, TruncationRejectedWithNextExpectedRecord) {
  const auto lines = split_lines(serialize(random_checkpoint(2)));
  ASSERT_EQ(lines.size(), 25u);
  // Cut after the rng lines: the reader must name the first missing
  // record ("collector", line 5) rather than crash or zero-fill.
  const std::vector<std::string> head(lines.begin(), lines.begin() + 4);
  expect_parse_error(join_lines(head), "line 5", "file truncated");
}

TEST(CalCheckpointTest, EveryTruncationPointRejected) {
  const std::string text = serialize(random_checkpoint(3));
  const auto lines = split_lines(text);
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    SCOPED_TRACE("keep " + std::to_string(keep) + " lines");
    const std::vector<std::string> head(lines.begin(),
                                        lines.begin() + static_cast<long>(keep));
    EXPECT_THROW(parse(join_lines(head)), std::runtime_error);
  }
  EXPECT_NO_THROW(parse(text));
}

TEST(CalCheckpointTest, GarbledFieldNamesLineAndField) {
  auto lines = split_lines(serialize(random_checkpoint(4)));
  // Line 4 is "rng_normal <2 doubles>"; garble its second value.
  std::istringstream in(lines[3]);
  std::string key, v1, v2;
  in >> key >> v1 >> v2;
  ASSERT_EQ(key, "rng_normal");
  lines[3] = key + " " + v1 + " bogus";
  expect_parse_error(join_lines(lines), "line 4", "field 2 of rng_normal");
}

TEST(CalCheckpointTest, SignedRngWordRejected) {
  auto lines = split_lines(serialize(random_checkpoint(5)));
  // Line 3 is "rng_state <4 u64>"; a negative word must not wrap.
  lines[2] = "rng_state 1 2 -3 4";
  expect_parse_error(join_lines(lines), "line 3",
                     "not an unsigned 64-bit integer");
}

TEST(CalCheckpointTest, WrongValueCountRejected) {
  auto lines = split_lines(serialize(random_checkpoint(6)));
  lines[4] = "collector 1 1 0.5";  // 3 values where 4 are required.
  expect_parse_error(join_lines(lines), "line 5", "expected 4 values");
}

TEST(CalCheckpointTest, WrongKeyRejected) {
  auto lines = split_lines(serialize(random_checkpoint(7)));
  lines[16] = "hintt 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 17", "hint");
}

TEST(CalCheckpointTest, PhaseOutOfRangeRejected) {
  auto lines = split_lines(serialize(random_checkpoint(8)));
  lines[1] = "state 99 0 0 0 0 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 2", "phase 99 out of range");
}

TEST(CalCheckpointTest, NonBinaryFlagRejected) {
  auto lines = split_lines(serialize(random_checkpoint(9)));
  lines[1] = "state 0 0 0 0 0 0 2 0 0";  // lm_active = 2.
  expect_parse_error(join_lines(lines), "line 2", "flag must be 0 or 1");
}

TEST(CalCheckpointTest, IntegerFieldOutOfRangeRejected) {
  auto lines = split_lines(serialize(random_checkpoint(12)));
  // collector's grid indices are ints stored as doubles; 1e300 has no int
  // conversion.
  lines[4] = "collector 1e300 1 0.5 0.5";
  expect_parse_error(join_lines(lines), "line 5",
                     "field 1 of collector is out of range");

  // stage2_i is an int stored as a u64; 2^32 + 5 must not wrap to 5.
  lines = split_lines(serialize(random_checkpoint(12)));
  lines[1] = "state 0 0 4294967301 0 0 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 2",
                     "field 3 of state is out of range");
}

// A count whose product with the item width wraps to 0 would accept an
// empty data line and then ask for an impossible allocation; the reader
// must reject it at the count line, naming the key.
TEST(CalCheckpointTest, OverflowingSampleCountRejected) {
  auto lines = split_lines(serialize(random_checkpoint(10)));
  ASSERT_EQ(lines[7].rfind("tx_samples_n ", 0), 0u);
  lines[7] = "tx_samples_n 4611686018427387904";  // 2^62: 2^62 * 4 wraps
  lines[8] = "tx_samples";
  expect_parse_error(join_lines(lines), "line 8", "tx_samples_n");
}

TEST(CalCheckpointTest, OverflowingTupleCountRejected) {
  auto lines = split_lines(serialize(random_checkpoint(11)));
  ASSERT_EQ(lines[14].rfind("tuples_n ", 0), 0u);
  lines[14] = "tuples_n 1152921504606846976";  // 2^60: 2^60 * 16 wraps
  lines[15] = "tuples";
  expect_parse_error(join_lines(lines), "line 15", "tuples_n");
}

TEST(CalCheckpointTest, RngWordsAbove2To53SurviveRoundTrip) {
  EngineCheckpoint cp;
  cp.rng.s[0] = 0xffffffffffffffffull;
  cp.rng.s[1] = (1ull << 53) + 1;  // The first value a double cannot hold.
  cp.rng.s[2] = 0x9e3779b97f4a7c15ull;
  cp.rng.s[3] = 1;
  cp.steps = 0xfedcba9876543210ull;
  const EngineCheckpoint back = parse(serialize(cp));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cp.rng.s[i], back.rng.s[i]);
  EXPECT_EQ(cp.steps, back.steps);
}

// ---- golden bytes ----

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

using PhaseHashes = std::vector<std::pair<cal::Phase, std::uint64_t>>;

/// Steps a fixed-seed 10G install and hashes the checkpoint text at the
/// first step boundary of every phase it passes through (kDone included).
PhaseHashes phase_checkpoint_hashes(bool blind) {
  constexpr std::uint64_t kSeed = 2022;
  sim::Prototype proto =
      sim::make_prototype(kSeed, sim::prototype_10g_config());
  core::CalibrationConfig config;
  config.blind_stage2 = blind;
  const runtime::Context ctx =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 2});
  cal::CalibrationEngine engine(proto, config, util::Rng(kSeed), ctx);
  PhaseHashes hashes;
  std::optional<cal::Phase> seen;
  for (bool more = true;; more = engine.step()) {
    if (engine.phase() != seen) {
      seen = engine.phase();
      hashes.emplace_back(*seen, fnv1a(serialize(engine.checkpoint())));
    }
    if (!more) break;
  }
  return hashes;
}

void expect_phase_hashes(const PhaseHashes& actual,
                         const PhaseHashes& expected) {
  std::string listing;
  for (const auto& [phase, hash] : actual) {
    listing += std::string(" {") + cal::phase_name(phase) + ", " +
               std::to_string(hash) + "ull}";
  }
  ASSERT_EQ(actual.size(), expected.size()) << "actual:" << listing;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first) << "boundary " << i;
    EXPECT_EQ(actual[i].second, expected[i].second)
        << cal::phase_name(actual[i].first);
  }
}

// The checkpoint file is an on-disk contract (an interrupted install
// resumes from it after a power cycle): every phase's text is pinned.
TEST(CalCheckpointGoldenTest, GuidedInstallBytesArePinned) {
  using cal::Phase;
  expect_phase_hashes(phase_checkpoint_hashes(false),
                      {{Phase::kStage1TxCollect, 11114846630352867001ull},
                       {Phase::kStage1TxFit, 10420697715356681094ull},
                       {Phase::kStage1RxCollect, 12503290775566763858ull},
                       {Phase::kStage1RxFit, 17600711830118246580ull},
                       {Phase::kStage2Collect, 9358944100760691387ull},
                       {Phase::kStage2Fit, 7805292489683656964ull},
                       {Phase::kStage2Retry, 15823445527372808510ull},
                       {Phase::kDone, 9236267638569425004ull}});
}

TEST(CalCheckpointGoldenTest, BlindInstallBytesArePinned) {
  using cal::Phase;
  expect_phase_hashes(phase_checkpoint_hashes(true),
                      {{Phase::kStage1TxCollect, 11114846630352867001ull},
                       {Phase::kStage1TxFit, 10420697715356681094ull},
                       {Phase::kStage1RxCollect, 12503290775566763858ull},
                       {Phase::kStage1RxFit, 17600711830118246580ull},
                       {Phase::kStage2Collect, 9358944100760691387ull},
                       {Phase::kStage2BlindA, 12273145673144604651ull},
                       {Phase::kStage2BlindB, 16746647844556919957ull},
                       {Phase::kStage2Retry, 18434587266662041850ull},
                       {Phase::kDone, 8679761589039987597ull}});
}

}  // namespace
