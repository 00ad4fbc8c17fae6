#include "bgp/rib.hpp"

#include <cassert>
#include <utility>

namespace ripki::bgp {

void Rib::add(RibEntry entry) {
  assert(!frozen_built_ && "Rib::add after freeze()");
  if (auto* existing = trie_.find_exact(entry.prefix)) {
    existing->push_back(std::move(entry));
  } else {
    const net::Prefix prefix = entry.prefix;
    trie_.insert(prefix, std::vector<RibEntry>{std::move(entry)});
  }
  ++entry_count_;
}

const std::vector<RibEntry>* Rib::entries_for(const net::Prefix& prefix) const {
  return trie_.find_exact(prefix);
}

std::vector<Rib::CoveringResult> Rib::covering(const net::IpAddress& addr) const {
  std::vector<CoveringResult> out;
  covering(addr, out);
  return out;
}

void Rib::covering(const net::IpAddress& addr, std::vector<CoveringResult>& out) const {
  const auto append = [&out](const net::Prefix& prefix,
                             const std::vector<RibEntry>& entries) {
    out.push_back({prefix, &entries});
  };
  if (frozen_built_ && !frozen_stale_) {
    frozen_.for_each_path_match(frozen_.deepest_covering(addr), append);
  } else {
    trie_.for_each_covering(net::Prefix(addr, addr.width()), append);
  }
}

void Rib::freeze() {
  if (frozen_built_) return;
  frozen_ = trie_.freeze();
  frozen_built_ = true;
}

std::vector<RibEntry> Rib::withdraw(const net::Prefix& prefix) {
  auto removed = trie_.erase(prefix);
  if (!removed.has_value()) return {};
  entry_count_ -= removed->size();
  if (frozen_built_) frozen_stale_ = true;
  return std::move(*removed);
}

void Rib::announce(std::vector<RibEntry> entries) {
  for (auto& entry : entries) {
    if (auto* existing = trie_.find_exact(entry.prefix)) {
      existing->push_back(std::move(entry));
    } else {
      const net::Prefix prefix = entry.prefix;
      trie_.insert(prefix, std::vector<RibEntry>{std::move(entry)});
    }
    ++entry_count_;
  }
  if (frozen_built_) frozen_stale_ = true;
}

void Rib::refreeze() {
  if (!frozen_built_ || !frozen_stale_) return;
  frozen_ = trie_.freeze();
  frozen_stale_ = false;
}

std::set<net::Asn> Rib::origins_for(const net::Prefix& prefix) const {
  std::set<net::Asn> out;
  if (const auto* entries = entries_for(prefix)) {
    for (const auto& entry : *entries) {
      if (entry.as_path.contains_as_set()) continue;  // RFC 6472 exclusion
      if (const auto origin = entry.origin()) out.insert(*origin);
    }
  }
  return out;
}

void Rib::visit(const std::function<void(const net::Prefix&,
                                         const std::vector<RibEntry>&)>& fn) const {
  trie_.visit(fn);
}

bool Rib::operator==(const Rib& other) const {
  if (peers_ != other.peers_ || entry_count_ != other.entry_count_ ||
      trie_.size() != other.trie_.size()) {
    return false;
  }
  // The trie has no iterator pair to compare lazily; collect both visit
  // sequences (prefix order is canonical per trie) and compare.
  std::vector<std::pair<net::Prefix, const std::vector<RibEntry>*>> lhs, rhs;
  lhs.reserve(trie_.size());
  rhs.reserve(other.trie_.size());
  visit([&](const net::Prefix& p, const std::vector<RibEntry>& e) {
    lhs.emplace_back(p, &e);
  });
  other.visit([&](const net::Prefix& p, const std::vector<RibEntry>& e) {
    rhs.emplace_back(p, &e);
  });
  if (lhs.size() != rhs.size()) return false;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].first != rhs[i].first || *lhs[i].second != *rhs[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace ripki::bgp
