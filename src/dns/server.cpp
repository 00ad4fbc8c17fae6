#include "dns/server.hpp"

namespace ripki::dns {

namespace {

/// Relaxed bump: the counters are monotonic tallies, not synchronization.
void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// Decoded query and response of the wire handlers, one pair per thread:
/// their sections keep their capacity, so a warm thread answers without
/// allocating.
struct WireScratch {
  Message query;
  Message response;
};

WireScratch& wire_scratch() {
  thread_local WireScratch scratch;
  return scratch;
}

}  // namespace

Message AuthoritativeServer::handle(const Message& query) const {
  Message response;
  handle(query, response);
  return response;
}

void AuthoritativeServer::handle(const Message& query, Message& response) const {
  bump(stats_.queries);
  response.reset();
  response.id = query.id;
  response.is_response = true;
  response.authoritative = true;
  response.recursion_desired = query.recursion_desired;
  response.questions = query.questions;

  if (query.questions.size() != 1) {
    response.rcode = Rcode::kFormErr;
    bump(stats_.formerr);
    return;
  }
  const Question& q = query.questions.front();

  // Direct records for the requested type.
  zones_->lookup(q.name, q.type, response.answers);
  if (!response.answers.empty()) return;

  // Alias: include the CNAME and let the resolver follow it.
  if (q.type != RecordType::kCname) {
    zones_->lookup(q.name, RecordType::kCname, response.answers);
    if (!response.answers.empty()) return;
  }

  if (!zones_->name_exists(q.name)) {
    response.rcode = Rcode::kNxDomain;
    bump(stats_.nxdomain);
  }
  // Name exists but no data of this type: NOERROR with empty answer.
}

void AuthoritativeServer::answer(std::span<const std::uint8_t> query_bytes,
                                 Message& query, Message& response) const {
  if (!decode_into(query_bytes, query).ok()) {
    bump(stats_.queries);
    bump(stats_.formerr);
    response.reset();
    response.is_response = true;
    response.rcode = Rcode::kFormErr;
    return;
  }
  handle(query, response);
}

void AuthoritativeServer::handle_stream(
    std::span<const std::uint8_t> query_bytes, util::Bytes& out) const {
  WireScratch& scratch = wire_scratch();
  answer(query_bytes, scratch.query, scratch.response);
  encode_into(scratch.response, out);
}

util::Bytes AuthoritativeServer::handle_stream(
    std::span<const std::uint8_t> query_bytes) const {
  util::Bytes out;
  handle_stream(query_bytes, out);
  return out;
}

util::Bytes AuthoritativeServer::handle_bytes(
    std::span<const std::uint8_t> query_bytes) const {
  return handle_stream(query_bytes);
}

void AuthoritativeServer::handle_datagram(
    std::span<const std::uint8_t> query_bytes, util::Bytes& out) const {
  WireScratch& scratch = wire_scratch();
  answer(query_bytes, scratch.query, scratch.response);
  Message& response = scratch.response;
  encode_into(response, out);
  if (out.size() > kUdpPayloadLimit) {
    // Truncate: drop the answer sections, flag TC, let the client retry
    // over TCP.
    response.answers.clear();
    response.authority.clear();
    response.additional.clear();
    response.truncated = true;
    bump(stats_.truncated);
    encode_into(response, out);
  }
}

util::Bytes AuthoritativeServer::handle_datagram(
    std::span<const std::uint8_t> query_bytes) const {
  util::Bytes out;
  handle_datagram(query_bytes, out);
  return out;
}

}  // namespace ripki::dns
