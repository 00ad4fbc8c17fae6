#include "dns/name.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ripki::dns {

namespace {

std::uint8_t lower(std::uint8_t c) {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c + ('a' - 'A')) : c;
}

}  // namespace

DnsName& DnsName::operator=(const DnsName& other) noexcept {
  size_ = other.size_;
  count_ = other.count_;
  std::memmove(wire_.data(), other.wire_.data(), size_);
  return *this;
}

util::Result<DnsName> DnsName::parse(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);

  std::size_t total = 1;  // root length byte
  for (;;) {
    const std::size_t dot = text.find('.');
    const std::string_view raw = text.substr(0, dot);
    if (raw.empty()) return util::Err("dns name: empty label");
    if (raw.size() > kMaxLabel) return util::Err("dns name: label exceeds 63 octets");
    total += raw.size() + 1;
    if (total <= 255) name.append_label(raw);
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  if (total > 255) return util::Err("dns name: exceeds 255 octets");
  return name;
}

bool DnsName::append_label(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabel ||
      size_ + label.size() + 1 > kMaxWire) {
    return false;
  }
  std::uint8_t* out = wire_.data() + size_;
  *out++ = static_cast<std::uint8_t>(label.size());
  for (const char c : label) *out++ = lower(static_cast<std::uint8_t>(c));
  size_ = static_cast<std::uint8_t>(size_ + label.size() + 1);
  ++count_;
  return true;
}

std::string_view DnsName::label(std::size_t i) const {
  assert(i < count_);
  std::size_t offset = 0;
  for (; i > 0; --i) offset += wire_[offset] + 1u;
  return {reinterpret_cast<const char*>(wire_.data() + offset + 1), wire_[offset]};
}

std::string DnsName::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void DnsName::append_to(std::string& out) const {
  for (std::size_t offset = 0; offset < size_; offset += wire_[offset] + 1u) {
    if (offset != 0) out += '.';
    out.append(reinterpret_cast<const char*>(wire_.data() + offset + 1), wire_[offset]);
  }
}

DnsName DnsName::prepended(std::string_view label) const {
  DnsName out;
  const bool fits = !label.empty() && label.size() <= kMaxLabel &&
                    size_ + label.size() + 1 <= kMaxWire;
  assert(fits && "DnsName::prepended: label or name too long");
  if (!fits) return out;
  out.append_label(label);
  std::memcpy(out.wire_.data() + out.size_, wire_.data(), size_);
  out.size_ = static_cast<std::uint8_t>(out.size_ + size_);
  out.count_ = static_cast<std::uint8_t>(count_ + 1);
  return out;
}

bool DnsName::ends_with(const DnsName& suffix) const {
  if (suffix.size_ > size_) return false;
  const std::size_t start = size_ - suffix.size_;
  std::size_t offset = 0;
  while (offset < start) offset += wire_[offset] + 1u;
  return offset == start &&
         std::memcmp(wire_.data() + start, suffix.wire_.data(), suffix.size_) == 0;
}

bool DnsName::operator==(const DnsName& other) const {
  return size_ == other.size_ &&
         std::memcmp(wire_.data(), other.wire_.data(), size_) == 0;
}

std::strong_ordering DnsName::operator<=>(const DnsName& other) const {
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < size_ && b < other.size_) {
    const std::size_t len_a = wire_[a];
    const std::size_t len_b = other.wire_[b];
    const int cmp = std::memcmp(wire_.data() + a + 1, other.wire_.data() + b + 1,
                                std::min(len_a, len_b));
    if (cmp != 0) return cmp <=> 0;
    if (len_a != len_b) return len_a <=> len_b;
    a += len_a + 1;
    b += len_b + 1;
  }
  return (a < size_) <=> (b < other.size_);
}

std::size_t DnsNameHash::operator()(const DnsName& name) const {
  const auto wire = name.wire();
  std::size_t h = 1469598103934665603ULL;
  for (std::size_t offset = 0; offset < wire.size(); offset += wire[offset] + 1u) {
    for (std::size_t i = 1; i <= wire[offset]; ++i) {
      h = (h ^ wire[offset + i]) * 1099511628211ULL;
    }
    h = (h ^ 0x2E) * 1099511628211ULL;  // label separator
  }
  return h;
}

}  // namespace ripki::dns
