// Open-addressed name -> row index over names stored elsewhere.
//
// The dataset and the ecosystem keep their names in flat char pools, one
// (begin, length) slot per row. This index maps a name back to its row
// without copying the names: a slot holds the row id and the upper half
// of the name's hash, and a candidate is confirmed by reading the name
// back through the caller's `name_of(row)`. The table is a power of two
// of at least 2n slots with linear probing, built in one pass with no
// per-entry allocation, so a lookup is one hash plus (almost always) one
// string compare.
//
// When several rows carry the same name, the first row inserted wins.
// Immutable once built; concurrent const lookups are safe.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace ripki::util {

template <typename Hash = std::hash<std::string_view>>
class BasicNameIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  BasicNameIndex() = default;

  /// Indexes rows [0, rows); `name_of(row)` yields each row's name.
  template <typename NameOf>
  BasicNameIndex(std::size_t rows, NameOf&& name_of) {
    if (rows == 0) return;
    assert(rows < kAbsent && "row ids are 32-bit");
    slots_.resize(std::bit_ceil(2 * rows));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t row = 0; row < rows; ++row) {
      const std::string_view name = name_of(static_cast<std::uint32_t>(row));
      const std::uint64_t hash = Hash{}(name);
      const auto tag = static_cast<std::uint32_t>(hash >> 32);
      for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.row == kAbsent) {
          slot = Slot{tag, static_cast<std::uint32_t>(row)};
          break;
        }
        if (slot.tag == tag && name_of(slot.row) == name) break;  // first wins
      }
    }
  }

  /// Row carrying `name`, or kAbsent. `name_of` must read the same names
  /// the index was built over.
  template <typename NameOf>
  std::uint32_t find(std::string_view name, NameOf&& name_of) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    const std::uint64_t hash = Hash{}(name);
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.row == kAbsent) return kAbsent;
      if (slot.tag == tag && name_of(slot.row) == name) return slot.row;
    }
  }

  std::size_t slot_count() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t row = kAbsent;
  };

  std::vector<Slot> slots_;
};

using NameIndex = BasicNameIndex<>;

}  // namespace ripki::util
