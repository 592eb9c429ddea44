// Record handles for the WAL tests. WalWriter::append and
// PersistManager::log_commit encode each assert from the record it
// points at; these tests write frames without a dataspace, so Asserts
// owns the records for the full expression it is built in.
#pragma once

#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "space/dataspace.hpp"

namespace sdl::persist {

/// Asserted (id, tuple) pairs, handed to an append as record handles.
class Asserts {
 public:
  Asserts(std::initializer_list<std::pair<TupleId, Tuple>> asserts)
      : Asserts(std::vector<std::pair<TupleId, Tuple>>(asserts)) {}
  explicit Asserts(const std::vector<std::pair<TupleId, Tuple>>& asserts) {
    records_.reserve(asserts.size());
    for (const auto& [id, t] : asserts) records_.push_back(Record{id, t});
    for (const Record& r : records_) handles_.push_back(&r);
  }
  Asserts(const Asserts&) = delete;
  Asserts& operator=(const Asserts&) = delete;

  operator std::span<const Record* const>() const {  // NOLINT
    return handles_;
  }

 private:
  std::vector<Record> records_;
  std::vector<const Record*> handles_;
};

/// Retracted ids for the same calls: a braced list does not convert to a
/// std::span, a vector does.
using Retracts = std::vector<TupleId>;

}  // namespace sdl::persist
