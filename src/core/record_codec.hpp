// The line-oriented record codec behind both persisted formats: the
// calibration result file (core/persistence.hpp) and the engine
// checkpoint (cal/checkpoint.hpp).  Internal to those two formats.
//
// A record is one `<key> <values...>` line of doubles (written at 17
// significant digits, so they round-trip exactly) or of unsigned 64-bit
// integers (parsed with std::from_chars: a double would corrupt RNG words
// above 2^53).  Each format writes and checks its own magic line, then
// declares its records once, in file order, as a function template
//
//   template <class Io, class T> void records(Io& io, T& value);
//
// that RecordWriter walks with a const T and RecordReader with a mutable
// one.  A record's fields are scalars (double, int, bool, u64 — converted
// to and from the record's value kind), arrays of them, Bounded fields,
// or callables `f(v)` that hand their own fields to the visitor `v`
// (composites such as a pose).  Every rejection is a std::runtime_error
// naming the 1-based line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cyclops::core::persist {

/// Throws std::runtime_error naming the line.
[[noreturn]] void fail(int line, const std::string& what);

/// An int or bool stored as a u64 field; reading rejects values above
/// `max` (1 for a bool: a flag), naming the field.
template <class X>
struct Bounded {
  const char* name;
  X& value;
  int max;
};

namespace detail {

template <class T>
inline constexpr bool kIsBounded = false;
template <class X>
inline constexpr bool kIsBounded<Bounded<X>> = true;

/// `v(fields...)` hands every scalar inside the fields, in order, to
/// Derived::scalar.
template <class Derived>
struct Visitor {
  template <class... F>
  void operator()(F&&... fields) {
    (visit(fields), ...);
  }

 private:
  template <class F>
  void visit(F& field) {
    auto& self = static_cast<Derived&>(*this);
    if constexpr (std::is_invocable_v<F&, Derived&>) {
      field(self);
    } else if constexpr (std::ranges::range<F&>) {
      for (auto& x : field) visit(x);
    } else {
      self.scalar(field);
    }
  }
};

template <class T>
class Emit : public Visitor<Emit<T>> {
 public:
  explicit Emit(std::ostream& out) : out_(out) {}
  template <class X>
  void scalar(const X& x) {
    if constexpr (kIsBounded<X>) {
      scalar(x.value);
    } else {
      out_ << ' ' << static_cast<T>(x);
    }
  }

 private:
  std::ostream& out_;
};

/// Assigns the parsed values of record `key` in order.  Slots past the
/// end read as zero (so running it over no values counts a binder's
/// slots) and field failures are held back, so the reader can report a
/// wrong value count first.
template <class T>
class Assign : public Visitor<Assign<T>> {
 public:
  Assign(std::span<const T> values, const char* key)
      : values_(values), key_(key) {}
  template <class X>
  void scalar(X& x) {
    const T value = next_ < values_.size() ? values_[next_] : T{};
    ++next_;
    if constexpr (kIsBounded<X>) {
      if (value > static_cast<T>(x.max)) {
        const std::string got = std::to_string(value);
        hold(std::is_same_v<decltype(x.value), bool&>
                 ? std::string(x.name) + " flag must be 0 or 1, got " + got
                 : std::string(x.name) + " " + got + " out of range (0.." +
                       std::to_string(x.max) + ")");
      }
      x.value = static_cast<std::remove_reference_t<decltype(x.value)>>(value);
    } else if constexpr (std::is_same_v<X, bool>) {
      x = value != T{};
    } else if constexpr (std::is_integral_v<X> && !std::is_same_v<X, T>) {
      // Out of X's range a u64 would wrap and a double has no conversion
      // at all (undefined behaviour), so the value is rejected, not cast.
      bool fits = false;
      if constexpr (std::is_floating_point_v<T>) {
        fits = value >= static_cast<T>(std::numeric_limits<X>::min()) &&
               value <= static_cast<T>(std::numeric_limits<X>::max());
      } else {
        fits = std::in_range<X>(value);
      }
      if (!fits) {
        hold("field " + std::to_string(next_) + " of " + key_ +
             " is out of range for an integer");
      }
      x = fits ? static_cast<X>(value) : X{};
    } else {
      x = static_cast<X>(value);
    }
  }
  std::size_t consumed() const noexcept { return next_; }
  const std::string& error() const noexcept { return error_; }

 private:
  void hold(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }
  std::span<const T> values_;
  const char* key_;
  std::size_t next_ = 0;
  std::string error_;
};

}  // namespace detail

class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& out) : out_(out) { out_.precision(17); }

  template <class... F>
  void f64s(const char* key, const F&... fields) {
    record<double>(key, fields...);
  }
  template <class... F>
  void u64s(const char* key, const F&... fields) {
    record<std::uint64_t>(key, fields...);
  }
  /// A count-prefixed array: `<count_key> <n>`, then `<data_key>` with
  /// every item's fields (`bind(v, item)`) in order.
  template <class Item, class Bind>
  void array(const char* count_key, const char* data_key,
             const std::vector<Item>& items, const Bind& bind) {
    u64s(count_key, items.size());
    f64s(data_key, [&](auto& v) {
      for (const Item& item : items) bind(v, item);
    });
  }

 private:
  template <class T, class... F>
  void record(const char* key, const F&... fields) {
    out_ << key;
    detail::Emit<T> emit(out_);
    emit(fields...);
    out_ << '\n';
  }

  std::ostream& out_;
};

/// Reads the records that follow the magic line (line 1).
class RecordReader {
 public:
  explicit RecordReader(std::istream& in) : in_(in) {}

  template <class... F>
  void f64s(const char* key, F&&... fields) {
    record<double>(key, fields...);
  }
  template <class... F>
  void u64s(const char* key, F&&... fields) {
    record<std::uint64_t>(key, fields...);
  }
  /// Reads what RecordWriter::array wrote.  The count is checked against
  /// the data line before anything is allocated.
  template <class Item, class Bind>
  void array(const char* count_key, const char* data_key,
             std::vector<Item>& items, const Bind& bind) {
    std::uint64_t n = 0;
    u64s(count_key, n);
    detail::Assign<double> slots({}, data_key);
    Item probe{};
    bind(slots, probe);
    const std::size_t width = slots.consumed();
    if (n > std::numeric_limits<std::size_t>::max() / width) {
      fail(line_, std::string(count_key) + " " + std::to_string(n) +
                      " overflows " + data_key);
    }
    const std::vector<double> values = read_values<double>(data_key);
    check_count(data_key, values.size(), static_cast<std::size_t>(n) * width);
    items.assign(static_cast<std::size_t>(n), Item{});
    detail::Assign<double> assign(values, data_key);
    for (Item& item : items) bind(assign, item);
    if (!assign.error().empty()) fail(line_, assign.error());
  }

 private:
  template <class T, class... F>
  void record(const char* key, F&... fields) {
    const std::vector<T> values = read_values<T>(key);
    detail::Assign<T> assign(values, key);
    assign(fields...);
    check_count(key, values.size(), assign.consumed());
    if (!assign.error().empty()) fail(line_, assign.error());
  }

  /// The one line reader: `<key> <values...>` of doubles or u64s.
  template <class T>
  std::vector<T> read_values(const char* key);
  void check_count(const char* key, std::size_t got,
                   std::size_t expected) const;

  std::istream& in_;
  int line_ = 1;
};

}  // namespace cyclops::core::persist
