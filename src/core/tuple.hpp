// Tuples and tuple identifiers (§2).
//
// "Each tuple is owned by the process that asserted it and the owner may be
//  determined by examining the unique tuple identifier associated with each
//  tuple. Typically, tuple identifiers are ignored by application programs
//  but are of interest during debugging and testing."
//
// TupleId packs (owner process id, per-runtime sequence number); the trace
// substrate (src/trace) surfaces it for exactly that debugging use.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/small_vector.hpp"
#include "core/value.hpp"

namespace sdl {

/// Identifies the logical process that asserted a tuple. Process id 0 is
/// reserved for "the environment" (tuples seeded by the host program).
using ProcessId = std::uint32_t;
inline constexpr ProcessId kEnvironmentProcess = 0;

/// Unique identifier of one tuple *instance* in the dataspace. The
/// dataspace is a multiset: two instances with equal fields have distinct
/// ids. Encodes the owner for debugging per the paper.
class TupleId {
 public:
  TupleId() = default;
  TupleId(ProcessId owner, std::uint64_t sequence)
      : bits_((static_cast<std::uint64_t>(owner) << 40) | (sequence & kSeqMask)) {}

  [[nodiscard]] ProcessId owner() const {
    return static_cast<ProcessId>(bits_ >> 40);
  }
  [[nodiscard]] std::uint64_t sequence() const { return bits_ & kSeqMask; }
  [[nodiscard]] std::uint64_t bits() const { return bits_; }
  [[nodiscard]] bool valid() const { return bits_ != 0; }

  friend bool operator==(TupleId a, TupleId b) { return a.bits_ == b.bits_; }
  friend bool operator!=(TupleId a, TupleId b) { return a.bits_ != b.bits_; }
  friend bool operator<(TupleId a, TupleId b) { return a.bits_ < b.bits_; }

  /// "#owner.sequence", e.g. "#3.17".
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
  std::uint64_t bits_ = 0;
};

/// An immutable sequence of values — the unit of dataspace content.
/// Up to kInlineFields fields live in the object itself, so a resident
/// record's fields sit next to its index links: a point read that walks
/// to a record reads its fields without a second dependent cache miss.
class Tuple {
 public:
  static constexpr std::size_t kInlineFields = 3;
  /// The field storage; build one to construct a Tuple without a copy.
  using Fields = SmallVector<Value, kInlineFields>;

  Tuple() = default;
  explicit Tuple(Fields&& fields) : fields_(std::move(fields)) {}
  explicit Tuple(std::vector<Value> fields) {
    fields_.reserve(fields.size());
    for (Value& v : fields) fields_.push_back(std::move(v));
  }
  Tuple(std::initializer_list<Value> fields) {
    fields_.reserve(fields.size());
    for (const Value& v : fields) fields_.push_back(v);
  }

  [[nodiscard]] std::size_t arity() const { return fields_.size(); }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] const Value& operator[](std::size_t i) const { return fields_[i]; }
  [[nodiscard]] const Value& at(std::size_t i) const {
    if (i >= fields_.size()) throw std::out_of_range("sdl::Tuple::at");
    return fields_[i];
  }

  [[nodiscard]] auto begin() const { return fields_.begin(); }
  [[nodiscard]] auto end() const { return fields_.end(); }

  /// Structural (multiset-element) equality: arity and fields.
  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.fields_ == b.fields_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  /// Lexicographic order under Value's canonical total order.
  friend bool operator<(const Tuple& a, const Tuple& b);

  [[nodiscard]] std::size_t hash() const;

  /// SDL literal syntax: "[year, 87]".
  [[nodiscard]] std::string to_string() const;

 private:
  Fields fields_;
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);

/// Field coercion backing tup(): const char* → Atom (SDL examples write
/// heads as bare atoms), everything else via Value's converting ctors.
inline Value detail_make_field(const char* s) { return Value::atom(s); }
inline Value detail_make_field(Value v) { return v; }
template <typename T>
Value detail_make_field(T&& x) {
  return Value(std::forward<T>(x));
}

/// Convenience factory used pervasively in tests and examples:
///   tup(Atom-spelling-or-value, ...) — string literals become *atoms*
///   (use std::string{} for genuine string values).
template <typename... Fields>
Tuple tup(Fields&&... fields) {
  Tuple::Fields v;
  v.reserve(sizeof...(fields));
  (v.push_back(detail_make_field(std::forward<Fields>(fields))), ...);
  return Tuple(std::move(v));
}

}  // namespace sdl

template <>
struct std::hash<sdl::Tuple> {
  std::size_t operator()(const sdl::Tuple& t) const noexcept { return t.hash(); }
};
template <>
struct std::hash<sdl::TupleId> {
  std::size_t operator()(sdl::TupleId id) const noexcept {
    return std::hash<std::uint64_t>{}(id.bits());
  }
};
