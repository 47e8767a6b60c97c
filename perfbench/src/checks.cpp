// Checks made apart from the program: they share no code with the trie
// validators, the propagation engine or the RIB merge and MRT codecs they
// check.
#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/det_hash.h"
#include "workload.h"

namespace perfbench {

using manrs::net::Asn;

bool valley_free(const manrs::astopo::AsGraph& graph,
                 const std::vector<uint32_t>& path) {
  bool descending = false;  // a peer or provider-to-customer hop was taken
  for (size_t i = path.size(); i-- > 1;) {
    const Asn from(path[i]);    // exports the route ...
    const Asn to(path[i - 1]);  // ... to its neighbor toward the vantage
    if (graph.is_provider_of(to, from)) {
      if (descending) return false;
    } else if (graph.are_peers(to, from)) {
      if (descending) return false;
      descending = true;
    } else if (graph.is_provider_of(from, to)) {
      descending = true;
    } else {
      return false;
    }
  }
  return true;
}

bool loop_free(const std::vector<uint32_t>& path) {
  std::unordered_set<uint32_t> seen;
  for (uint32_t asn : path) {
    if (!seen.insert(asn).second) return false;
  }
  return true;
}

manrs::rpki::RpkiStatus naive_rpki(const std::vector<manrs::rpki::Vrp>& vrps,
                                   const manrs::net::Prefix& route,
                                   Asn origin) {
  bool covering = false;
  bool asn_match = false;
  for (const manrs::rpki::Vrp& vrp : vrps) {
    if (!vrp.prefix.contains(route)) continue;
    covering = true;
    if (origin.value() == 0 || vrp.asn != origin) continue;
    if (vrp.max_length >= route.length()) {
      return manrs::rpki::RpkiStatus::kValid;
    }
    asn_match = true;
  }
  if (!covering) return manrs::rpki::RpkiStatus::kNotFound;
  return asn_match ? manrs::rpki::RpkiStatus::kInvalidLength
                   : manrs::rpki::RpkiStatus::kInvalidAsn;
}

manrs::irr::IrrStatus naive_irr(
    const std::vector<manrs::bgp::PrefixOrigin>& route_objects,
    const manrs::net::Prefix& route, Asn origin) {
  bool covering = false;
  bool asn_match = false;
  for (const manrs::bgp::PrefixOrigin& object : route_objects) {
    if (!object.prefix.contains(route)) continue;
    covering = true;
    if (object.origin != origin) continue;
    if (object.prefix.length() == route.length()) {
      return manrs::irr::IrrStatus::kValid;
    }
    asn_match = true;
  }
  if (!covering) return manrs::irr::IrrStatus::kNotFound;
  return asn_match ? manrs::irr::IrrStatus::kInvalidLength
                   : manrs::irr::IrrStatus::kInvalidAsn;
}

uint64_t fold_prefix(uint64_t h, const manrs::net::Prefix& p) {
  h = manrs::util::fnv1a_u64(h, p.address().hi());
  h = manrs::util::fnv1a_u64(h, p.address().lo());
  return manrs::util::fnv1a_byte(h, static_cast<uint8_t>(p.length()));
}

uint64_t rib_digest(const manrs::bgp::Rib& rib) {
  using Entry = std::pair<uint32_t, const std::vector<Asn>*>;  // (peer AS, path)
  uint64_t h = manrs::util::kFnv1aOffset;
  std::vector<Entry> row;
  rib.for_each([&](const manrs::net::Prefix& prefix,
                   const std::vector<manrs::bgp::RibEntry>& entries) {
    row.clear();
    for (const manrs::bgp::RibEntry& e : entries) {
      row.emplace_back(rib.peer_asn(e.peer_index).value(), &e.path.hops());
    }
    std::sort(row.begin(), row.end(), [](const Entry& a, const Entry& b) {
      return a.first != b.first ? a.first < b.first : *a.second < *b.second;
    });
    h = fold_prefix(h, prefix);
    h = manrs::util::fnv1a_u64(h, row.size());
    for (const Entry& e : row) {
      h = manrs::util::fnv1a_u64(h, e.first);
      h = manrs::util::fnv1a_u64(h, e.second->size());
      for (Asn hop : *e.second) h = manrs::util::fnv1a_u64(h, hop.value());
    }
  });
  return h;
}

}  // namespace perfbench
