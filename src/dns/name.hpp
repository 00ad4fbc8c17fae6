// DNS domain names: ordered label sequences, case-insensitive (stored
// lowercase), max 255 octets / 63 per label (RFC 1035 §2.3.4).
//
// A name is one flat buffer of lowercase wire-format labels (length byte,
// then the label octets), without the terminating root byte. The RFC caps
// that at 255 octets, so the buffer is inline and fixed: building,
// copying and comparing names never touches the heap.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace ripki::dns {

class DnsName {
 public:
  /// Wire octets of the labels (length bytes included, root byte not).
  static constexpr std::size_t kMaxWire = 255;
  static constexpr std::size_t kMaxLabel = 63;

  DnsName() = default;  // the root name
  DnsName(const DnsName& other) noexcept { *this = other; }
  DnsName& operator=(const DnsName& other) noexcept;

  /// Parses dotted notation ("www.Example.COM" -> www.example.com).
  /// A trailing dot is accepted; empty labels elsewhere are rejected.
  static util::Result<DnsName> parse(std::string_view text);

  /// Appends `label`, lowercased, as the new last label. Returns false and
  /// leaves the name unchanged when the label is empty, longer than 63
  /// octets, or would take the labels past kMaxWire octets.
  bool append_label(std::string_view label);

  /// Label `i` (0 = leftmost); i < label_count().
  std::string_view label(std::size_t i) const;
  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }

  /// The labels in wire format, without the root byte.
  std::span<const std::uint8_t> wire() const { return {wire_.data(), size_}; }

  /// Dotted presentation without trailing dot ("" for the root).
  std::string to_string() const;
  /// Appends the dotted presentation to `out` (no allocation once `out`
  /// has the capacity).
  void append_to(std::string& out) const;

  /// "www" + example.com -> www.example.com. The label must be 1-63
  /// octets and the result must fit kMaxWire (asserted; a release build
  /// yields the root name instead of an over-long one).
  DnsName prepended(std::string_view label) const;

  /// True when this name equals `suffix` or ends with it
  /// (a495.g.akamai.net ends_with akamai.net).
  bool ends_with(const DnsName& suffix) const;

  /// Total encoded length in octets (labels + length bytes + root byte).
  std::size_t encoded_size() const { return std::size_t{size_} + 1; }

  bool operator==(const DnsName& other) const;
  /// Label-wise lexicographic order (as a sequence of label strings), not
  /// the order of the wire bytes, whose length bytes would come first.
  std::strong_ordering operator<=>(const DnsName& other) const;

 private:
  std::uint8_t size_ = 0;   // octets used in wire_
  std::uint8_t count_ = 0;  // labels
  std::array<std::uint8_t, kMaxWire> wire_;  // only [0, size_) is set
};

struct DnsNameHash {
  std::size_t operator()(const DnsName& name) const;
};

}  // namespace ripki::dns
