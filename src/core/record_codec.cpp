#include "core/record_codec.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cyclops::core::persist {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("calibration file line " + std::to_string(line) +
                           ": " + what);
}

template <class T>
std::vector<T> RecordReader::read_values(const char* key) {
  std::string text;
  if (!std::getline(in_, text)) {
    fail(line_ + 1, "file truncated, expected '" + std::string(key) +
                        "' record");
  }
  ++line_;
  std::istringstream ss(text);
  std::string found;
  ss >> found;
  if (found != key) {
    fail(line_, "expected '" + std::string(key) + "' record, found '" +
                    found + "'");
  }
  std::vector<T> values;
  const auto field = [&] {
    return "field " + std::to_string(values.size() + 1) + " of " + key;
  };
  if constexpr (std::is_same_v<T, double>) {
    double v = 0.0;
    while (ss >> v) {
      if (!std::isfinite(v)) fail(line_, field() + " is not finite");
      values.push_back(v);
    }
    // The stream stopped on a token that is not a double (e.g. "NaN"
    // spelled oddly, or stray text) before the line ran out.
    if (!ss.eof()) fail(line_, field() + " is not a number");
  } else {
    // from_chars, not the istream extractor: istream's unsigned
    // extraction accepts '-' and wraps.
    std::string token;
    while (ss >> token) {
      T v = 0;
      const char* last = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(token.data(), last, v);
      if (ec != std::errc{} || ptr != last) {
        fail(line_, field() + " is not an unsigned 64-bit integer");
      }
      values.push_back(v);
    }
  }
  return values;
}

template std::vector<double> RecordReader::read_values<double>(const char*);
template std::vector<std::uint64_t> RecordReader::read_values<std::uint64_t>(
    const char*);

void RecordReader::check_count(const char* key, std::size_t got,
                               std::size_t expected) const {
  if (got != expected) {
    fail(line_, "expected " + std::to_string(expected) + " values for " +
                    key + ", got " + std::to_string(got));
  }
}

}  // namespace cyclops::core::persist
