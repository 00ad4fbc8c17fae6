#include "dns/message.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ripki::dns {

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kA: return "A";
    case RecordType::kNs: return "NS";
    case RecordType::kCname: return "CNAME";
    case RecordType::kSoa: return "SOA";
    case RecordType::kTxt: return "TXT";
    case RecordType::kDnskey: return "DNSKEY";
    case RecordType::kAaaa: return "AAAA";
  }
  return "?";
}

ResourceRecord ResourceRecord::a(DnsName name, net::IpAddress addr, std::uint32_t ttl) {
  assert(addr.is_v4());
  return ResourceRecord{std::move(name), RecordType::kA, ttl, addr};
}

ResourceRecord ResourceRecord::aaaa(DnsName name, net::IpAddress addr,
                                    std::uint32_t ttl) {
  assert(addr.is_v6());
  return ResourceRecord{std::move(name), RecordType::kAaaa, ttl, addr};
}

ResourceRecord ResourceRecord::cname(DnsName name, DnsName target, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RecordType::kCname, ttl, std::move(target)};
}

Message Message::query(std::uint16_t id, DnsName name, RecordType type) {
  Message m;
  m.id = id;
  m.questions.push_back(Question{std::move(name), type});
  return m;
}

void Message::reset() {
  id = 0;
  is_response = false;
  authoritative = false;
  truncated = false;
  recursion_desired = true;
  recursion_available = false;
  rcode = Rcode::kNoError;
  questions.clear();
  answers.clear();
  authority.clear();
  additional.clear();
}

namespace {

constexpr std::uint16_t kClassIn = 1;
constexpr std::uint8_t kPointerMask = 0xC0;
constexpr std::size_t kMaxPointerOffset = 0x3FFF;

/// A compression target: a name suffix written out as labels, and the
/// message offset of its first label. `wire` points into a name of the
/// message being encoded, which outlives the encode call.
struct WrittenSuffix {
  const std::uint8_t* wire;
  std::size_t size;
  std::uint16_t offset;
};
using WrittenSuffixes = std::vector<WrittenSuffix>;

/// Every suffix is recorded at most once (a later name finds it and
/// points at it instead of writing it again), so a linear scan for the
/// longest written suffix picks the same offset a suffix->offset map
/// would.
void write_name(util::ByteWriter& w, const DnsName& name, WrittenSuffixes& written) {
  const auto wire = name.wire();
  for (std::size_t at = 0; at < wire.size(); at += wire[at] + 1u) {
    const std::size_t size = wire.size() - at;
    for (const WrittenSuffix& suffix : written) {
      if (suffix.size == size && std::memcmp(suffix.wire, wire.data() + at, size) == 0) {
        w.put_u16(static_cast<std::uint16_t>(0xC000 | suffix.offset));
        return;
      }
    }
    if (w.size() < kMaxPointerOffset) {
      written.push_back({wire.data() + at, size, static_cast<std::uint16_t>(w.size())});
    }
    w.put_bytes(wire.subspan(at, wire[at] + 1u));
  }
  w.put_u8(0);  // root
}

/// Reads a possibly compressed name into `out`, lowercasing the labels.
util::Result<void> read_name(std::span<const std::uint8_t> data, std::size_t& pos,
                             DnsName& out) {
  out = DnsName();
  std::size_t cursor = pos;
  bool jumped = false;
  // Forward progress guard: every compression pointer must point strictly
  // before the previous jump target (or the name start), which bounds the
  // walk and rejects loops.
  std::size_t min_offset = pos;
  std::size_t total = 0;

  for (;;) {
    if (cursor >= data.size()) return util::Err("dns: name runs past message");
    const std::uint8_t len = data[cursor];
    if ((len & kPointerMask) == kPointerMask) {
      if (cursor + 1 >= data.size()) return util::Err("dns: truncated pointer");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | data[cursor + 1];
      if (target >= min_offset) return util::Err("dns: non-decreasing pointer");
      if (!jumped) {
        pos = cursor + 2;
        jumped = true;
      }
      min_offset = target;
      cursor = target;
      continue;
    }
    if ((len & kPointerMask) != 0) return util::Err("dns: reserved label type");
    if (len == 0) {
      if (!jumped) pos = cursor + 1;
      return {};
    }
    if (cursor + 1 + len > data.size()) return util::Err("dns: truncated label");
    total += len + 1;
    if (total > DnsName::kMaxWire) return util::Err("dns: name exceeds 255 octets");
    out.append_label(
        std::string_view(reinterpret_cast<const char*>(data.data() + cursor + 1), len));
    cursor += 1 + len;
  }
}

void write_record(util::ByteWriter& w, const ResourceRecord& rr,
                  WrittenSuffixes& written) {

  write_name(w, rr.name, written);
  w.put_u16(static_cast<std::uint16_t>(rr.type));
  w.put_u16(kClassIn);
  w.put_u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.put_u16(0);  // back-patched
  const std::size_t rdata_start = w.size();

  switch (rr.type) {
    case RecordType::kA: {
      const auto& addr = std::get<net::IpAddress>(rr.rdata);
      w.put_bytes(std::span<const std::uint8_t>(addr.bytes().data(), 4));
      break;
    }
    case RecordType::kAaaa: {
      const auto& addr = std::get<net::IpAddress>(rr.rdata);
      w.put_bytes(std::span<const std::uint8_t>(addr.bytes().data(), 16));
      break;
    }
    case RecordType::kCname:
    case RecordType::kNs:
      write_name(w, std::get<DnsName>(rr.rdata), written);
      break;
    case RecordType::kSoa: {
      const auto& soa = std::get<SoaData>(rr.rdata);
      write_name(w, soa.mname, written);
      write_name(w, soa.rname, written);
      w.put_u32(soa.serial);
      w.put_u32(soa.refresh);
      w.put_u32(soa.retry);
      w.put_u32(soa.expire);
      w.put_u32(soa.minimum);
      break;
    }
    case RecordType::kTxt: {
      const auto& text = std::get<std::string>(rr.rdata);
      const std::size_t n = std::min<std::size_t>(text.size(), 255);
      w.put_u8(static_cast<std::uint8_t>(n));
      w.put_string(std::string_view(text).substr(0, n));
      break;
    }
    case RecordType::kDnskey: {
      const auto& key = std::get<DnskeyData>(rr.rdata);
      w.put_u16(key.flags);
      w.put_u8(key.protocol);
      w.put_u8(key.algorithm);
      w.put_string(key.public_key);
      break;
    }
  }
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

util::Result<void> read_record(std::span<const std::uint8_t> data, std::size_t& pos,
                               ResourceRecord& rr) {
  if (auto r = read_name(data, pos, rr.name); !r.ok()) return r.error();

  util::ByteReader reader(data);
  if (auto r = reader.seek(pos); !r.ok()) return r.error();
  RIPKI_TRY_ASSIGN(type_raw, reader.u16());
  RIPKI_TRY_ASSIGN(klass, reader.u16());
  if (klass != kClassIn) return util::Err("dns: unsupported class");
  RIPKI_TRY_ASSIGN(ttl, reader.u32());
  rr.ttl = ttl;
  RIPKI_TRY_ASSIGN(rdlength, reader.u16());
  if (reader.remaining() < rdlength) return util::Err("dns: truncated rdata");
  const std::size_t rdata_start = reader.position();
  const std::size_t rdata_end = rdata_start + rdlength;

  rr.type = static_cast<RecordType>(type_raw);
  switch (rr.type) {
    case RecordType::kA: {
      if (rdlength != 4) return util::Err("dns: bad A rdata length");
      RIPKI_TRY_ASSIGN(raw, reader.view(4));
      rr.rdata = net::IpAddress::v4(raw[0], raw[1], raw[2], raw[3]);
      break;
    }
    case RecordType::kAaaa: {
      if (rdlength != 16) return util::Err("dns: bad AAAA rdata length");
      RIPKI_TRY_ASSIGN(raw, reader.view(16));
      std::array<std::uint8_t, 16> addr{};
      std::copy(raw.begin(), raw.end(), addr.begin());
      rr.rdata = net::IpAddress::v6(addr);
      break;
    }
    case RecordType::kCname:
    case RecordType::kNs: {
      std::size_t name_pos = rdata_start;
      auto& target = rr.rdata.emplace<DnsName>();
      if (auto r = read_name(data, name_pos, target); !r.ok()) return r.error();
      if (name_pos != rdata_end) return util::Err("dns: bad name rdata length");
      break;
    }
    case RecordType::kSoa: {
      std::size_t soa_pos = rdata_start;
      auto& soa = rr.rdata.emplace<SoaData>();
      if (auto r = read_name(data, soa_pos, soa.mname); !r.ok()) return r.error();
      if (auto r = read_name(data, soa_pos, soa.rname); !r.ok()) return r.error();
      util::ByteReader ints(data);
      if (auto r = ints.seek(soa_pos); !r.ok()) return r.error();
      RIPKI_TRY_ASSIGN(serial, ints.u32());
      soa.serial = serial;
      RIPKI_TRY_ASSIGN(refresh, ints.u32());
      soa.refresh = refresh;
      RIPKI_TRY_ASSIGN(retry, ints.u32());
      soa.retry = retry;
      RIPKI_TRY_ASSIGN(expire, ints.u32());
      soa.expire = expire;
      RIPKI_TRY_ASSIGN(minimum, ints.u32());
      soa.minimum = minimum;
      if (ints.position() != rdata_end) return util::Err("dns: bad SOA rdata length");
      break;
    }
    case RecordType::kTxt: {
      RIPKI_TRY_ASSIGN(len, reader.u8());
      if (1 + static_cast<std::size_t>(len) != rdlength)
        return util::Err("dns: bad TXT rdata length");
      RIPKI_TRY_ASSIGN(text, reader.string(len));
      rr.rdata = std::move(text);
      break;
    }
    case RecordType::kDnskey: {
      if (rdlength < 4) return util::Err("dns: bad DNSKEY rdata length");
      auto& key = rr.rdata.emplace<DnskeyData>();
      RIPKI_TRY_ASSIGN(flags, reader.u16());
      key.flags = flags;
      RIPKI_TRY_ASSIGN(protocol, reader.u8());
      key.protocol = protocol;
      RIPKI_TRY_ASSIGN(algorithm, reader.u8());
      key.algorithm = algorithm;
      RIPKI_TRY_ASSIGN(blob, reader.string(rdlength - 4));
      key.public_key = std::move(blob);
      break;
    }
    default:
      return util::Err("dns: unsupported record type " + std::to_string(type_raw));
  }

  pos = rdata_end;
  return {};
}

util::Result<void> read_records(std::span<const std::uint8_t> data, std::size_t& pos,
                                std::uint16_t count, std::vector<ResourceRecord>& out) {
  for (std::uint16_t i = 0; i < count; ++i) {
    if (auto r = read_record(data, pos, out.emplace_back()); !r.ok()) return r.error();
  }
  return {};
}

}  // namespace

util::Bytes encode(const Message& message) {
  util::Bytes out;
  encode_into(message, out);
  return out;
}

void encode_into(const Message& message, util::Bytes& out) {
  util::ByteWriter w(std::move(out));
  // Per-thread table of written suffixes: its capacity outlives the call,
  // so steady-state encodes do not allocate.
  thread_local WrittenSuffixes written;
  written.clear();

  w.put_u16(message.id);
  std::uint16_t flags = 0;
  if (message.is_response) flags |= 0x8000;
  if (message.authoritative) flags |= 0x0400;
  if (message.truncated) flags |= 0x0200;
  if (message.recursion_desired) flags |= 0x0100;
  if (message.recursion_available) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(message.rcode);
  w.put_u16(flags);
  w.put_u16(static_cast<std::uint16_t>(message.questions.size()));
  w.put_u16(static_cast<std::uint16_t>(message.answers.size()));
  w.put_u16(static_cast<std::uint16_t>(message.authority.size()));
  w.put_u16(static_cast<std::uint16_t>(message.additional.size()));

  for (const auto& q : message.questions) {
    write_name(w, q.name, written);
    w.put_u16(static_cast<std::uint16_t>(q.type));
    w.put_u16(kClassIn);
  }
  for (const auto& rr : message.answers) write_record(w, rr, written);
  for (const auto& rr : message.authority) write_record(w, rr, written);
  for (const auto& rr : message.additional) write_record(w, rr, written);
  out = std::move(w).take();
}

util::Result<Message> decode(std::span<const std::uint8_t> data) {
  Message m;
  if (auto r = decode_into(data, m); !r.ok()) return r.error();
  return m;
}

util::Result<void> decode_into(std::span<const std::uint8_t> data, Message& m) {
  m.questions.clear();
  m.answers.clear();
  m.authority.clear();
  m.additional.clear();

  util::ByteReader reader(data);
  RIPKI_TRY_ASSIGN(id, reader.u16());
  m.id = id;
  RIPKI_TRY_ASSIGN(flags, reader.u16());
  m.is_response = (flags & 0x8000) != 0;
  m.authoritative = (flags & 0x0400) != 0;
  m.truncated = (flags & 0x0200) != 0;
  m.recursion_desired = (flags & 0x0100) != 0;
  m.recursion_available = (flags & 0x0080) != 0;
  m.rcode = static_cast<Rcode>(flags & 0x000F);
  RIPKI_TRY_ASSIGN(qdcount, reader.u16());
  RIPKI_TRY_ASSIGN(ancount, reader.u16());
  RIPKI_TRY_ASSIGN(nscount, reader.u16());
  RIPKI_TRY_ASSIGN(arcount, reader.u16());

  std::size_t pos = reader.position();
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question& q = m.questions.emplace_back();
    if (auto r = read_name(data, pos, q.name); !r.ok()) return r.error();
    util::ByteReader qr(data);
    if (auto r = qr.seek(pos); !r.ok()) return r.error();
    RIPKI_TRY_ASSIGN(type_raw, qr.u16());
    RIPKI_TRY_ASSIGN(klass, qr.u16());
    if (klass != kClassIn) return util::Err("dns: unsupported question class");
    pos = qr.position();
    q.type = static_cast<RecordType>(type_raw);
  }
  if (auto r = read_records(data, pos, ancount, m.answers); !r.ok()) return r.error();
  if (auto r = read_records(data, pos, nscount, m.authority); !r.ok()) return r.error();
  if (auto r = read_records(data, pos, arcount, m.additional); !r.ok()) return r.error();
  if (pos != data.size()) return util::Err("dns: trailing bytes in message");
  return {};
}

}  // namespace ripki::dns
