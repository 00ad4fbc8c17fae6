#include "rpki/origin_validation.hpp"

namespace ripki::rpki {

const char* to_string(OriginValidity validity) {
  switch (validity) {
    case OriginValidity::kValid: return "valid";
    case OriginValidity::kInvalid: return "invalid";
    case OriginValidity::kNotFound: return "not-found";
  }
  return "unknown";
}

VrpIndex::VrpIndex(const VrpSet& vrps) {
  for (const auto& vrp : vrps) add(vrp);
}

void VrpIndex::add(const Vrp& vrp) {
  if (auto* existing = trie_.find_exact(vrp.prefix)) {
    existing->push_back(vrp);
  } else {
    trie_.insert(vrp.prefix, std::vector<Vrp>{vrp});
  }
  ++size_;
}

OriginValidity VrpIndex::validate(const net::Prefix& route, net::Asn origin) const {
  bool any_covering = false;
  bool valid = false;
  trie_.for_each_covering(route, [&](const net::Prefix&, const std::vector<Vrp>& vrps) {
    for (const Vrp& vrp : vrps) {
      any_covering = true;
      // AS0 VRPs ("this prefix must not be routed") can never validate.
      if (origin.value() != 0 && vrp.asn == origin &&
          route.length() <= static_cast<int>(vrp.max_length)) {
        valid = true;
      }
    }
  });
  if (valid) return OriginValidity::kValid;
  return any_covering ? OriginValidity::kInvalid : OriginValidity::kNotFound;
}

bool VrpIndex::covered(const net::Prefix& route) const {
  bool any = false;
  trie_.for_each_covering(route, [&any](const net::Prefix&, const std::vector<Vrp>&) {
    any = true;
  });
  return any;
}

}  // namespace ripki::rpki
