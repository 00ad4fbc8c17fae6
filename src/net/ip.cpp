#include "net/ip.hpp"

#include <cassert>
#include <cstdio>

#include "util/strings.hpp"

namespace ripki::net {

IpAddress IpAddress::v4(std::uint32_t host_order) {
  IpAddress out;
  out.family_ = Family::kIpv4;
  out.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
  out.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
  out.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
  out.bytes_[3] = static_cast<std::uint8_t>(host_order);
  return out;
}

IpAddress IpAddress::v4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
  return v4((static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
            (static_cast<std::uint32_t>(c) << 8) | d);
}

IpAddress IpAddress::v6(const std::array<std::uint8_t, 16>& bytes) {
  IpAddress out;
  out.family_ = Family::kIpv6;
  out.bytes_ = bytes;
  return out;
}

namespace {

util::Result<IpAddress> parse_v4(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return util::Err("ipv4: expected 4 octets");
  std::uint32_t value = 0;
  for (const auto& part : parts) {
    std::uint64_t octet = 0;
    if (part.empty() || part.size() > 3 || !util::parse_u64(part, octet) || octet > 255)
      return util::Err("ipv4: bad octet '" + part + "'");
    value = (value << 8) | static_cast<std::uint32_t>(octet);
  }
  return IpAddress::v4(value);
}

util::Result<std::uint16_t> parse_hex_group(std::string_view group) {
  if (group.empty() || group.size() > 4) return util::Err("ipv6: bad group size");
  std::uint32_t v = 0;
  for (char c : group) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return util::Err("ipv6: bad hex digit");
    v = (v << 4) | static_cast<std::uint32_t>(digit);
  }
  return static_cast<std::uint16_t>(v);
}

util::Result<IpAddress> parse_v6(std::string_view text) {
  // Split on "::" (at most one occurrence).
  const std::size_t gap = text.find("::");
  if (gap != std::string_view::npos && text.find("::", gap + 1) != std::string_view::npos)
    return util::Err("ipv6: multiple '::'");

  auto parse_groups = [](std::string_view part,
                         std::vector<std::uint16_t>& out) -> util::Result<void> {
    if (part.empty()) return {};
    for (const auto& g : util::split(part, ':')) {
      auto group = parse_hex_group(g);
      if (!group.ok()) return group.error();
      out.push_back(group.value());
    }
    return {};
  };

  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  if (gap == std::string_view::npos) {
    if (auto r = parse_groups(text, head); !r.ok()) return r.error();
    if (head.size() != 8) return util::Err("ipv6: expected 8 groups");
  } else {
    if (auto r = parse_groups(text.substr(0, gap), head); !r.ok()) return r.error();
    if (auto r = parse_groups(text.substr(gap + 2), tail); !r.ok()) return r.error();
    if (head.size() + tail.size() >= 8) return util::Err("ipv6: '::' expands to nothing");
  }

  std::array<std::uint8_t, 16> bytes{};
  for (std::size_t i = 0; i < head.size(); ++i) {
    bytes[i * 2] = static_cast<std::uint8_t>(head[i] >> 8);
    bytes[i * 2 + 1] = static_cast<std::uint8_t>(head[i]);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const std::size_t pos = 8 - tail.size() + i;
    bytes[pos * 2] = static_cast<std::uint8_t>(tail[i] >> 8);
    bytes[pos * 2 + 1] = static_cast<std::uint8_t>(tail[i]);
  }
  return IpAddress::v6(bytes);
}

}  // namespace

util::Result<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.empty()) return util::Err("ip: empty address");
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  return parse_v4(text);
}

std::uint32_t IpAddress::v4_value() const {
  assert(is_v4());
  return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
         (static_cast<std::uint32_t>(bytes_[1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[2]) << 8) | bytes_[3];
}

std::string IpAddress::to_string() const {
  char buf[64];
  if (is_v4()) {
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", bytes_[0], bytes_[1], bytes_[2],
                  bytes_[3]);
    return buf;
  }
  // RFC 5952 canonical form: compress the longest run (>=2) of zero groups.
  std::uint16_t groups[8];
  for (int i = 0; i < 8; ++i) {
    groups[i] = static_cast<std::uint16_t>(
        (bytes_[static_cast<std::size_t>(i * 2)] << 8) |
        bytes_[static_cast<std::size_t>(i * 2 + 1)]);
  }
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof buf, "%x", groups[i]);
    out += buf;
    ++i;
  }
  return out;
}

IpAddress IpAddress::masked(int prefix_len) const {
  assert(prefix_len >= 0 && prefix_len <= width());
  IpAddress out = *this;
  const int total_bytes = width() / 8;
  for (int i = 0; i < total_bytes; ++i) {
    const int bit_start = i * 8;
    if (bit_start >= prefix_len) {
      out.bytes_[static_cast<std::size_t>(i)] = 0;
    } else if (bit_start + 8 > prefix_len) {
      const int keep = prefix_len - bit_start;
      out.bytes_[static_cast<std::size_t>(i)] &=
          static_cast<std::uint8_t>(0xFF << (8 - keep));
    }
  }
  return out;
}

std::size_t IpAddressHash::operator()(const IpAddress& a) const {
  std::size_t h = a.is_v4() ? 0x9E3779B97F4A7C15ULL : 0xC2B2AE3D27D4EB4FULL;
  for (std::uint8_t b : a.bytes()) h = h * 1099511628211ULL ^ b;
  return h;
}

}  // namespace ripki::net
