// Test-only naive Gao-Rexford reference for the propagation engine, plus
// the random inputs the propagation suites feed it.
//
// oracle_propagate() scores every neighbor offer with the full route
// preference -- customer > peer > provider, then shorter path, then
// lowest next-hop ASN -- iterated to a fixpoint, so it pins down each
// AS's route class, distance and chosen next hop, i.e. the exact
// tie-break the engine implements with dense-id comparisons.
// expect_matches_oracle() checks one engine result against it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "astopo/graph.h"
#include "simulator/propagation.h"
#include "util/rng.h"

namespace manrs::oracle {

struct OracleRoute {
  sim::RouteSource source = sim::RouteSource::kNone;
  uint16_t distance = 0;
  uint32_t next_hop = 0;  // ASN value; 0 (reserved ASN) for the origin

  bool operator==(const OracleRoute&) const = default;
};

using Policies = std::map<uint32_t, sim::FilterPolicy>;

/// Full route preference: class (RouteSource enum order is already
/// provider < peer < customer < origin), then distance, then lowest
/// next-hop ASN.
inline bool better(const OracleRoute& a, const OracleRoute& b) {
  if (a.source != b.source) {
    return static_cast<int>(a.source) > static_cast<int>(b.source);
  }
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.next_hop < b.next_hop;
}

/// Every routed AS's converged best route, keyed by ASN value; unreached
/// ASes are absent.
inline std::map<uint32_t, OracleRoute> oracle_propagate(
    const astopo::AsGraph& graph, const Policies& policies, net::Asn origin,
    const sim::AnnouncementClass& cls) {
  using sim::RouteSource;
  std::map<uint32_t, OracleRoute> routes;
  if (!graph.contains(origin)) return routes;
  routes[origin.value()] = OracleRoute{RouteSource::kOrigin, 0, 0};

  auto drops = [&](net::Asn receiver, RouteSource adjacency) {
    auto it = policies.find(receiver.value());
    sim::FilterPolicy policy =
        it == policies.end() ? sim::FilterPolicy{} : it->second;
    if (policy.rov && cls.rpki_invalid) return true;
    bool invalid = cls.rpki_invalid || cls.irr_invalid;
    if (!invalid) return false;
    if (adjacency == RouteSource::kCustomer &&
        cls.variant < policy.customer_strictness) {
      return true;
    }
    if (adjacency == RouteSource::kPeer &&
        cls.variant < policy.peer_strictness) {
      return true;
    }
    return false;
  };

  // Synchronous relaxation to the converged BGP state: each round, every
  // AS recomputes its best route from its neighbors' *current* best
  // routes (a node switching from a short peer route to a long customer
  // route re-advertises, so derived routes must be recomputed too --
  // keeping monotone improvements would freeze stale state).
  bool changed = true;
  size_t guard = 0;
  while (changed && guard++ < 2 * graph.as_count() + 8) {
    changed = false;
    std::map<uint32_t, OracleRoute> next;
    next[origin.value()] = OracleRoute{RouteSource::kOrigin, 0, 0};
    for (net::Asn u : graph.all_asns()) {
      if (u == origin) continue;
      OracleRoute best;  // kNone
      auto consider = [&](net::Asn v, RouteSource adjacency_at_u) {
        auto vit = routes.find(v.value());
        if (vit == routes.end()) return;
        const OracleRoute& via = vit->second;
        // v exports its best route to u only when valley-free allows it:
        // customer/origin routes go to everyone, anything goes downhill.
        bool exported = via.source == RouteSource::kOrigin ||
                        via.source == RouteSource::kCustomer ||
                        adjacency_at_u == RouteSource::kProvider;
        if (!exported) return;
        if (drops(u, adjacency_at_u)) return;
        OracleRoute candidate{adjacency_at_u,
                              static_cast<uint16_t>(via.distance + 1),
                              v.value()};
        if (best.source == RouteSource::kNone || better(candidate, best)) {
          best = candidate;
        }
      };
      for (net::Asn c : graph.customers(u)) {
        consider(c, RouteSource::kCustomer);
      }
      for (net::Asn p : graph.peers(u)) consider(p, RouteSource::kPeer);
      for (net::Asn p : graph.providers(u)) {
        consider(p, RouteSource::kProvider);
      }
      if (best.source != RouteSource::kNone) next[u.value()] = best;
    }
    if (next != routes) {
      routes = std::move(next);
      changed = true;
    }
  }
  return routes;
}

/// Every AS's route in `result` must equal the oracle's: reachability,
/// class, distance and next hop. `context` prefixes failure messages.
inline void expect_matches_oracle(
    const sim::PropagationSim& sim, const astopo::AsGraph& graph,
    const sim::PropagationResult& result,
    const std::map<uint32_t, OracleRoute>& oracle,
    const std::string& context) {
  for (net::Asn asn : graph.all_asns()) {
    const int32_t id = sim.indexer().id_of(asn);
    ASSERT_GE(id, 0);
    auto ref = oracle.find(asn.value());
    const bool ref_reached = ref != oracle.end();
    ASSERT_EQ(result.reached(id), ref_reached)
        << context << " as=" << asn.to_string();
    if (!ref_reached) continue;
    EXPECT_EQ(result.source(id), ref->second.source)
        << context << " as=" << asn.to_string();
    EXPECT_EQ(result.distance(id), ref->second.distance)
        << context << " as=" << asn.to_string();
    if (ref->second.source != sim::RouteSource::kOrigin) {
      ASSERT_GE(result.next_hop(id), 0) << context << " as=" << asn.to_string();
      EXPECT_EQ(sim.indexer().asn_of(result.next_hop(id)).value(),
                ref->second.next_hop)
          << context << " as=" << asn.to_string();
    } else {
      EXPECT_EQ(result.next_hop(id), sim::PropagationResult::kNoRoute)
          << context << " as=" << asn.to_string();
    }
  }
}

/// A loose hierarchy over ASNs 100..100+n-1: node i may buy transit from
/// lower-indexed nodes (so the p2c graph is acyclic), plus random peering
/// edges not parallel to p2c edges.
inline astopo::AsGraph random_graph(util::Rng& rng, size_t n) {
  using net::Asn;
  astopo::AsGraph graph;
  for (size_t i = 0; i < n; ++i) graph.add_as(Asn(100 + i));
  for (size_t i = 1; i < n; ++i) {
    size_t providers = 1 + rng.uniform(2);
    for (size_t k = 0; k < providers; ++k) {
      graph.add_provider_customer(Asn(100 + rng.uniform(i)), Asn(100 + i));
    }
  }
  for (size_t k = 0; k < n / 2; ++k) {
    size_t a = rng.uniform(n), b = rng.uniform(n);
    if (a == b) continue;
    if (graph.is_provider_of(Asn(100 + a), Asn(100 + b)) ||
        graph.is_provider_of(Asn(100 + b), Asn(100 + a))) {
      continue;
    }
    graph.add_peer_peer(Asn(100 + a), Asn(100 + b));
  }
  return graph;
}

/// Random ROV / customer / peer filtering per AS, in ASN order.
inline Policies random_policies(util::Rng& rng, const astopo::AsGraph& graph) {
  Policies policies;
  for (net::Asn asn : graph.all_asns()) {
    sim::FilterPolicy policy;
    policy.rov = rng.bernoulli(0.2);
    if (rng.bernoulli(0.3)) {
      policy.customer_strictness =
          static_cast<uint8_t>(1 + rng.uniform(sim::kFilterVariants));
    }
    if (rng.bernoulli(0.2)) {
      policy.peer_strictness =
          static_cast<uint8_t>(1 + rng.uniform(sim::kFilterVariants));
    }
    policies[asn.value()] = policy;
  }
  return policies;
}

inline void apply_policies(sim::PropagationSim& sim,
                           const Policies& policies) {
  for (const auto& [asn, policy] : policies) {
    sim.set_policy(net::Asn(asn), policy);
  }
}

inline sim::AnnouncementClass random_class(util::Rng& rng) {
  sim::AnnouncementClass cls;
  cls.rpki_invalid = rng.bernoulli(0.4);
  cls.irr_invalid = rng.bernoulli(0.4);
  cls.variant = static_cast<uint8_t>(rng.uniform(sim::kFilterVariants));
  return cls;
}

}  // namespace manrs::oracle
