// Calibration persistence: v2 header, v1 compatibility, and the
// malformed-file rejections (truncation, wrong value counts, non-finite
// fields) with line/field-numbered errors.  Uses a synthetic
// CalibrationResult so no (slow) calibration runs, except the one
// golden-bytes test, which pins the file written for a real install.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/persistence.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/rng.hpp"

namespace cyclops::core {
namespace {

CalibrationResult make_synthetic() {
  std::array<double, galvo::GalvoParams::kParamCount> tx_packed{};
  std::array<double, galvo::GalvoParams::kParamCount> rx_packed{};
  for (std::size_t i = 0; i < tx_packed.size(); ++i) {
    tx_packed[i] = 0.013 * static_cast<double>(i + 1);
    rx_packed[i] = -0.007 * static_cast<double>(i + 1);
  }
  const std::array<double, 6> tx_map{0.1, -0.2, 0.3, 0.01, -0.02, 0.03};
  const std::array<double, 6> rx_map{-0.4, 0.5, -0.6, 0.04, -0.05, 0.06};
  return CalibrationResult{
      KSpaceFitReport{GmaModel(galvo::GalvoParams::unpack(tx_packed)),
                      1.2e-3, 3.4e-3, 0, true},
      KSpaceFitReport{GmaModel(galvo::GalvoParams::unpack(rx_packed)),
                      2.3e-3, 4.5e-3, 0, true},
      MappingFitReport{geom::Pose::from_params(tx_map),
                       geom::Pose::from_params(rx_map), 5.6e-3, 7.8e-3, 0,
                       true},
      {}};
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::filesystem::path& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
}

/// Runs load_calibration and returns the thrown message ("" if none).
std::string load_error(const std::filesystem::path& path) {
  try {
    load_calibration(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PersistenceV2Test, SavesV2HeaderAndRoundTrips) {
  const auto path = temp_file("cyclops_persist_v2.txt");
  const CalibrationResult calib = make_synthetic();
  save_calibration(path, calib);

  const auto lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "cyclops-calibration v2");

  const CalibrationResult loaded = load_calibration(path);
  const auto a = calib.tx_stage1.model.params().pack();
  const auto b = loaded.tx_stage1.model.params().pack();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
  EXPECT_NEAR(loaded.mapping.max_coincidence_m,
              calib.mapping.max_coincidence_m, 1e-15);
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, StillLoadsV1Files) {
  const auto path = temp_file("cyclops_persist_v1.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[0] = "cyclops-calibration v1";
  write_lines(path, lines);

  const CalibrationResult loaded = load_calibration(path);
  EXPECT_NEAR(loaded.tx_stage1.avg_error_m, 1.2e-3, 1e-15);
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, RejectsUnknownHeaderNamingIt) {
  const auto path = temp_file("cyclops_persist_badmagic.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[0] = "cyclops-calibration v3";
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("cyclops-calibration v3"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, TruncatedFileNamesMissingRecord) {
  const auto path = temp_file("cyclops_persist_trunc.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines.resize(3);  // header + tx_model + rx_model; map_tx onwards gone
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("map_tx"), std::string::npos) << what;
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, WrongValueCountNamesLineAndCounts) {
  const auto path = temp_file("cyclops_persist_arity.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[1] = "tx_model 1 2 3";  // 25 expected
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 25"), std::string::npos) << what;
  EXPECT_NE(what.find("got 3"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, NonFiniteFieldNamesLineAndField) {
  const auto path = temp_file("cyclops_persist_nan.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  // Replace rx_model's third value with NaN (line 3, field 3).
  std::istringstream ss(lines[2]);
  std::string token;
  std::vector<std::string> tokens;
  while (ss >> token) tokens.push_back(token);
  tokens[3] = "nan";  // tokens[0] is the key
  std::string rebuilt;
  for (const auto& t : tokens) rebuilt += t + " ";
  lines[2] = rebuilt;
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("field 3 of rx_model"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, NonNumericFieldNamesLineAndField) {
  const auto path = temp_file("cyclops_persist_text.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[4] = "map_rx 0.1 0.2 bogus 0.4 0.5 0.6";
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 5"), std::string::npos) << what;
  EXPECT_NE(what.find("of map_rx"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, WrongRecordKeyNamesBoth) {
  const auto path = temp_file("cyclops_persist_key.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[1].replace(0, 8, "ty_model");
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("tx_model"), std::string::npos) << what;
  EXPECT_NE(what.find("ty_model"), std::string::npos) << what;
  std::filesystem::remove(path);
}

/// FNV-1a (64-bit) over the bytes of a file.
std::uint64_t file_fnv1a(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    hash ^= static_cast<unsigned char>(*it);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// The file a fixed-seed 10G guided install saves, byte for byte: the
// header, the record order and the 17-digit number formatting are the
// on-disk contract that deployed rigs reload after a power cycle.
TEST(PersistenceV2Test, SavedInstallBytesArePinned) {
  constexpr std::uint64_t kSeed = 2022;
  sim::Prototype proto =
      sim::make_prototype(kSeed, sim::prototype_10g_config());
  util::Rng rng(kSeed);
  const runtime::Context ctx =
      runtime::Context::isolated({runtime::Context::kDefaultSeed, 2});
  const CalibrationResult calib =
      calibrate_prototype(proto, CalibrationConfig{}, rng, ctx);
  const auto path = temp_file("cyclops_persist_golden.txt");
  save_calibration(path, calib);
  EXPECT_EQ(file_fnv1a(path), 5727443329604447631ull);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cyclops::core
