// A memo for one stage of a least-squares residual (DESIGN.md §19): a
// per-sample table keyed on the bits of exactly the parameters the stage
// reads, so a finite-difference column that leaves them alone gets the
// table back.  Tables are immutable once published and a miss builds
// outside the lock, so a memoized residual equals an uncached one at any
// pool width.  The least recently used of kEntries tables is evicted: the
// base point's tables, hit by every column that does not read the
// perturbed parameter, outlive the perturbed ones the pool chunks publish.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace cyclops::opt {

template <class Table, std::size_t KeyLength>
class StageMemo {
 public:
  using Key = std::array<double, KeyLength>;

  /// The published table whose key has `key`'s bits, else `build()`'s
  /// result, published.
  template <class Build>
  std::shared_ptr<const Table> get(const Key& key, Build&& build) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (Entry& e : entries_) {
        if (e.table && std::memcmp(&e.key, &key, sizeof(Key)) == 0) {
          e.last_use = ++clock_;
          return e.table;
        }
      }
    }
    auto table = std::make_shared<const Table>(build());
    const std::lock_guard<std::mutex> lock(mu_);
    *std::min_element(entries_.begin(), entries_.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.last_use < b.last_use;
                      }) = {key, table, ++clock_};
    return table;
  }

 private:
  static constexpr std::size_t kEntries = 4;

  struct Entry {
    Key key{};
    std::shared_ptr<const Table> table;
    std::uint64_t last_use = 0;  ///< 0: never filled.
  };

  std::mutex mu_;
  std::array<Entry, kEntries> entries_{};
  std::uint64_t clock_ = 0;
};

/// A per-sample table: {row(0), ..., row(n - 1)}.
template <class Row>
auto tabulate(std::size_t n, const Row& row) {
  std::vector<decltype(row(std::size_t{}))> out;
  out.reserve(n);
  for (std::size_t s = 0; s < n; ++s) out.push_back(row(s));
  return out;
}

}  // namespace cyclops::opt
