// The three benchmark workloads.  Each draws its units from a fixed pool
// keyed 0..pool_size()-1 and derived only from the dataset seed, so every
// unit has a shipped reference output (refs/).  The run's --seed only
// orders the pool, pass by pass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// JSON object members ("k":v,...) without the braces.
class Fields {
 public:
  void add(const char* key, double value);
  void add(const char* key, std::uint64_t value);
  void add(const char* key, const std::string& value);
  const std::string& str() const { return s_; }

 private:
  void key(const char* key);
  std::string s_;
};

struct UnitResult {
  Fields out;          ///< The outputs run.py checks against the references.
  double sim_s = 0.0;  ///< Simulated seconds the unit covered (0 if none).
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t pool_size() const = 0;
  virtual std::string kind(std::size_t key) const = 0;
  /// Untimed first units (part of set-up): cold caches, lazy statics and
  /// allocator growth are paid here.  Their outputs feed no counter.
  virtual void warm_up() = 0;
  /// One timed unit.  Spans go to `spans` when it is non-null.  Throws on
  /// failure.
  virtual UnitResult run_unit(std::size_t key, std::uint64_t unit,
                              SpanRecorder* spans) = 0;
  /// Untimed follow-up of the unit just run: extra checked outputs, oracle
  /// comparisons, counter roll-up.  Throws on failure.
  virtual void after_unit(std::size_t key, bool traced, UnitResult& result) = 0;
  /// Whole-run counters and checks, as JSON members.
  virtual void finish(Fields& out) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t dataset_seed);

}  // namespace perfbench
