// Property test: the three-phase (linear-time) propagation must agree
// with a naive fixpoint implementation of BGP route selection under
// Gao-Rexford policies -- same reachability, same route class, same path
// length -- on randomized topologies, with and without filtering.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "simulator/propagation.h"
#include "util/rng.h"

namespace manrs::sim {
namespace {

using astopo::AsGraph;
using net::Asn;

/// Reference: iterate BGP selection to a fixpoint.
///
/// Each AS holds its best route as (class, distance); preference is class
/// first (origin > customer > peer > provider), then shorter distance. An
/// AS exports only its best route, to everyone when that route is
/// customer-learned or self-originated, and to customers only otherwise.
struct RefRoute {
  RouteSource source = RouteSource::kNone;
  uint16_t distance = std::numeric_limits<uint16_t>::max();

  bool operator==(const RefRoute&) const = default;
};

bool better(const RefRoute& a, const RefRoute& b) {
  if (a.source != b.source) {
    return static_cast<int>(a.source) > static_cast<int>(b.source);
  }
  return a.distance < b.distance;
}

std::map<uint32_t, RefRoute> reference_propagate(
    const AsGraph& graph, const std::map<uint32_t, FilterPolicy>& policies,
    Asn origin, const AnnouncementClass& cls) {
  std::map<uint32_t, RefRoute> routes;
  if (!graph.contains(origin)) return routes;
  routes[origin.value()] = RefRoute{RouteSource::kOrigin, 0};

  auto policy_of = [&](Asn asn) {
    auto it = policies.find(asn.value());
    return it == policies.end() ? FilterPolicy{} : it->second;
  };
  auto drops = [&](Asn receiver, RouteSource adjacency) {
    FilterPolicy policy = policy_of(receiver);
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
    std::map<uint32_t, RefRoute> next;
    next[origin.value()] = RefRoute{RouteSource::kOrigin, 0};
    for (Asn u : graph.all_asns()) {
      if (u == origin) continue;
      RefRoute best;  // kNone
      auto consider = [&](Asn v, RouteSource adjacency_at_u) {
        auto vit = routes.find(v.value());
        if (vit == routes.end()) return;
        const RefRoute& via = vit->second;
        // v exports its best route to u only when valley-free allows it.
        bool exported = via.source == RouteSource::kOrigin ||
                        via.source == RouteSource::kCustomer ||
                        adjacency_at_u == RouteSource::kProvider;
        if (!exported) return;
        if (drops(u, adjacency_at_u)) return;
        RefRoute candidate{adjacency_at_u,
                           static_cast<uint16_t>(via.distance + 1)};
        if (best.source == RouteSource::kNone || better(candidate, best)) {
          best = candidate;
        }
      };
      // Routes learned FROM customers / peers / providers of u.
      for (Asn c : graph.customers(u)) consider(c, RouteSource::kCustomer);
      for (Asn p : graph.peers(u)) consider(p, RouteSource::kPeer);
      for (Asn p : graph.providers(u)) consider(p, RouteSource::kProvider);
      if (best.source != RouteSource::kNone) next[u.value()] = best;
    }
    if (next != routes) {
      routes = std::move(next);
      changed = true;
    }
  }
  return routes;
}

AsGraph random_graph(util::Rng& rng, size_t n) {
  AsGraph graph;
  // A loose hierarchy: node i may buy transit from lower-indexed nodes
  // (guarantees acyclic p2c), plus random peering.
  for (size_t i = 0; i < n; ++i) graph.add_as(Asn(100 + i));
  for (size_t i = 1; i < n; ++i) {
    size_t providers = 1 + rng.uniform(2);
    for (size_t k = 0; k < providers; ++k) {
      size_t p = rng.uniform(i);
      graph.add_provider_customer(Asn(100 + p), Asn(100 + i));
    }
  }
  size_t peerings = n / 2;
  for (size_t k = 0; k < peerings; ++k) {
    size_t a = rng.uniform(n), b = rng.uniform(n);
    if (a == b) continue;
    // Avoid peer edges parallel to p2c edges (not meaningful in BGP).
    if (graph.is_provider_of(Asn(100 + a), Asn(100 + b)) ||
        graph.is_provider_of(Asn(100 + b), Asn(100 + a))) {
      continue;
    }
    graph.add_peer_peer(Asn(100 + a), Asn(100 + b));
  }
  return graph;
}

class PropagationVsReferenceP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationVsReferenceP, AgreesOnRandomGraphs) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    size_t n = 12 + rng.uniform(28);
    AsGraph graph = random_graph(rng, n);

    std::map<uint32_t, FilterPolicy> policies;
    for (Asn asn : graph.all_asns()) {
      FilterPolicy policy;
      policy.rov = rng.bernoulli(0.2);
      if (rng.bernoulli(0.3)) {
        policy.customer_strictness =
            static_cast<uint8_t>(1 + rng.uniform(kFilterVariants));
      }
      if (rng.bernoulli(0.2)) {
        policy.peer_strictness =
            static_cast<uint8_t>(1 + rng.uniform(kFilterVariants));
      }
      policies[asn.value()] = policy;
    }

    PropagationSim sim(graph);
    for (const auto& [asn, policy] : policies) {
      sim.set_policy(Asn(asn), policy);
    }

    for (int a = 0; a < 6; ++a) {
      Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
      AnnouncementClass cls;
      cls.rpki_invalid = rng.bernoulli(0.4);
      cls.irr_invalid = rng.bernoulli(0.4);
      cls.variant =
          static_cast<uint8_t>(rng.uniform(kFilterVariants));

      PropagationResult fast = sim.propagate(origin, cls);
      auto reference = reference_propagate(graph, policies, origin, cls);

      for (Asn asn : graph.all_asns()) {
        int32_t id = sim.indexer().id_of(asn);
        ASSERT_GE(id, 0);
        auto ref_it = reference.find(asn.value());
        bool ref_reached = ref_it != reference.end();
        EXPECT_EQ(fast.reached(id), ref_reached)
            << "seed=" << GetParam() << " origin=" << origin.to_string()
            << " as=" << asn.to_string();
        if (!ref_reached || !fast.reached(id)) continue;
        EXPECT_EQ(fast.source(id), ref_it->second.source)
            << origin.to_string() << " -> " << asn.to_string();
        EXPECT_EQ(fast.distance(id), ref_it->second.distance)
            << origin.to_string() << " -> " << asn.to_string();
        // The materialized path must be valley-free and consistent.
        bgp::AsPath path = sim.path_from(fast, asn);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.hops().size(),
                  static_cast<size_t>(ref_it->second.distance) + 1);
        EXPECT_EQ(path.origin(), origin);
        EXPECT_FALSE(path.has_loop());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationVsReferenceP,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006, 7007, 8008));

}  // namespace
}  // namespace manrs::sim
