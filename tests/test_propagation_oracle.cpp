// Oracle tests for the rebuilt propagation engine.
//
// Two layers of defense:
//
//   * PropagationOracle: a naive per-AS-decision reference that scores
//     every neighbor offer with the full Gao-Rexford preference --
//     customer > peer > provider, then shorter path, then lowest
//     next-hop ASN -- iterated to a fixpoint. Unlike the fixpoint in
//     test_propagation_property.cpp (reachability/class/distance), this
//     oracle also pins down the chosen next hop, i.e. the exact
//     tie-break the CSR engine implements with dense-id comparisons.
//   * PropagationCache: propagate_cached() must be observationally
//     identical to propagate() -- same result values, and byte-identical
//     collector RIBs and hegemony CSVs with the cache on vs off -- while
//     actually sharing work across stages (hit rate > 0) and collapsing
//     classes no policy distinguishes onto one entry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ihr/dataset.h"
#include "mrt/table_dump.h"
#include "simulator/collector.h"
#include "simulator/propagation.h"
#include "topogen/scenario.h"
#include "util/rng.h"

namespace manrs {
namespace {

using astopo::AsGraph;
using net::Asn;
using sim::AnnouncementClass;
using sim::FilterPolicy;
using sim::PropagationResult;
using sim::PropagationSim;
using sim::PropagationWorkspace;
using sim::RouteSource;

// ---------------------------------------------------------------------------
// The reference oracle: full per-AS decision, one neighbor offer at a time.

struct OracleRoute {
  RouteSource source = RouteSource::kNone;
  uint16_t distance = 0;
  uint32_t next_hop = 0;  // ASN value; 0 (reserved ASN) for the origin

  bool operator==(const OracleRoute&) const = default;
};

/// Full route preference: class (RouteSource enum order is already
/// provider < peer < customer < origin), then distance, then lowest
/// next-hop ASN.
bool better(const OracleRoute& a, const OracleRoute& b) {
  if (a.source != b.source) {
    return static_cast<int>(a.source) > static_cast<int>(b.source);
  }
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.next_hop < b.next_hop;
}

std::map<uint32_t, OracleRoute> oracle_propagate(
    const AsGraph& graph, const std::map<uint32_t, FilterPolicy>& policies,
    Asn origin, const AnnouncementClass& cls) {
  std::map<uint32_t, OracleRoute> routes;
  if (!graph.contains(origin)) return routes;
  routes[origin.value()] = OracleRoute{RouteSource::kOrigin, 0, 0};

  auto drops = [&](Asn receiver, RouteSource adjacency) {
    auto it = policies.find(receiver.value());
    FilterPolicy policy = it == policies.end() ? FilterPolicy{} : it->second;
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

  // Synchronous relaxation to the converged BGP state (see
  // test_propagation_property.cpp for why monotone updates don't work).
  bool changed = true;
  size_t guard = 0;
  while (changed && guard++ < 2 * graph.as_count() + 8) {
    changed = false;
    std::map<uint32_t, OracleRoute> next;
    next[origin.value()] = OracleRoute{RouteSource::kOrigin, 0, 0};
    for (Asn u : graph.all_asns()) {
      if (u == origin) continue;
      OracleRoute best;  // kNone
      auto consider = [&](Asn v, RouteSource adjacency_at_u) {
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
  // Node i may buy transit from lower-indexed nodes (acyclic p2c), plus
  // random peering edges not parallel to p2c edges.
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

std::map<uint32_t, FilterPolicy> random_policies(util::Rng& rng,
                                                 const AsGraph& graph) {
  std::map<uint32_t, FilterPolicy> policies;
  for (Asn asn : graph.all_asns()) {
    FilterPolicy policy;
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

AnnouncementClass random_class(util::Rng& rng) {
  AnnouncementClass cls;
  cls.rpki_invalid = rng.bernoulli(0.4);
  cls.irr_invalid = rng.bernoulli(0.4);
  cls.variant = static_cast<uint8_t>(rng.uniform(sim::kFilterVariants));
  return cls;
}

class PropagationOracleP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationOracleP, EveryPerAsDecisionMatches) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    size_t n = 10 + rng.uniform(30);
    AsGraph graph = random_graph(rng, n);
    auto policies = random_policies(rng, graph);

    PropagationSim sim(graph);
    for (const auto& [asn, policy] : policies) {
      sim.set_policy(Asn(asn), policy);
    }

    // One workspace reused across every propagation of the trial: the
    // epoch reset must leave no state behind from earlier calls.
    PropagationWorkspace workspace;
    for (int a = 0; a < 6; ++a) {
      Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
      AnnouncementClass cls = random_class(rng);

      PropagationResult fast = sim.propagate(origin, cls, workspace);
      auto oracle = oracle_propagate(graph, policies, origin, cls);

      for (Asn asn : graph.all_asns()) {
        int32_t id = sim.indexer().id_of(asn);
        ASSERT_GE(id, 0);
        auto ref = oracle.find(asn.value());
        const bool ref_reached = ref != oracle.end();
        ASSERT_EQ(fast.reached(id), ref_reached)
            << "seed=" << GetParam() << " origin=" << origin.to_string()
            << " as=" << asn.to_string();
        if (!ref_reached) continue;
        EXPECT_EQ(fast.source(id), ref->second.source)
            << origin.to_string() << " -> " << asn.to_string();
        EXPECT_EQ(fast.distance(id), ref->second.distance)
            << origin.to_string() << " -> " << asn.to_string();
        if (ref->second.source != RouteSource::kOrigin) {
          // The decisive check: the engine's dense-id tie-break must pick
          // exactly the oracle's lowest-ASN next hop.
          ASSERT_GE(fast.next_hop(id), 0);
          EXPECT_EQ(sim.indexer().asn_of(fast.next_hop(id)).value(),
                    ref->second.next_hop)
              << "seed=" << GetParam() << " origin=" << origin.to_string()
              << " as=" << asn.to_string();
        } else {
          EXPECT_EQ(fast.next_hop(id), PropagationResult::kNoRoute);
        }
      }
    }
  }
}

TEST_P(PropagationOracleP, WorkspaceReuseIsIdempotent) {
  util::Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  size_t n = 12 + rng.uniform(20);
  AsGraph graph = random_graph(rng, n);
  auto policies = random_policies(rng, graph);
  PropagationSim sim(graph);
  for (const auto& [asn, policy] : policies) sim.set_policy(Asn(asn), policy);

  // Results through one long-lived workspace must equal results through a
  // fresh workspace per call, in any interleaving.
  PropagationWorkspace reused;
  for (int a = 0; a < 8; ++a) {
    Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
    AnnouncementClass cls = random_class(rng);
    PropagationResult warm = sim.propagate(origin, cls, reused);
    PropagationWorkspace fresh;
    PropagationResult cold = sim.propagate(origin, cls, fresh);
    EXPECT_EQ(warm, cold);
  }
}

TEST_P(PropagationOracleP, BatchedLanesMatchOracle) {
  // Every lane of one batched sweep must match the naive oracle. The
  // batch deliberately mixes effective drop signatures: valid lanes
  // propagate unfiltered while invalid variants hit ROV / strictness
  // filters of the same policies in the same sweep, plus a duplicate
  // (origin, class) lane pair. The first ten requests run as one sweep
  // at the default width (the scalar descent fold: 10 % 8 != 0); all 16
  // then run as one 16-lane sweep, which takes the 8-lane vector fold
  // wherever the CPU has it.
  util::Rng rng(GetParam() * 0x2545f4914f6cdd1dull + 1);
  size_t n = 12 + rng.uniform(24);
  AsGraph graph = random_graph(rng, n);
  auto policies = random_policies(rng, graph);
  PropagationSim sim(graph);
  for (const auto& [asn, policy] : policies) sim.set_policy(Asn(asn), policy);

  std::vector<sim::PropagationRequest> requests;
  AnnouncementClass valid;  // all-clear signature
  Asn first(100 + static_cast<uint32_t>(rng.uniform(n)));
  requests.push_back(sim::PropagationRequest{first, valid});
  requests.push_back(sim::PropagationRequest{first, valid});  // duplicate lane
  for (int a = 0; a < 14; ++a) {
    requests.push_back(sim::PropagationRequest{
        Asn(100 + static_cast<uint32_t>(rng.uniform(n))), random_class(rng)});
  }

  auto expect_oracle = [&](const std::vector<PropagationResult>& lanes,
                           size_t width) {
    for (size_t r = 0; r < lanes.size(); ++r) {
      auto oracle = oracle_propagate(graph, policies, requests[r].origin,
                                     requests[r].cls);
      const PropagationResult& lane = lanes[r];
      for (Asn asn : graph.all_asns()) {
        int32_t id = sim.indexer().id_of(asn);
        ASSERT_GE(id, 0);
        auto ref = oracle.find(asn.value());
        const bool ref_reached = ref != oracle.end();
        ASSERT_EQ(lane.reached(id), ref_reached)
            << "seed=" << GetParam() << " width=" << width << " lane=" << r
            << " origin=" << requests[r].origin.to_string()
            << " as=" << asn.to_string();
        if (!ref_reached) continue;
        EXPECT_EQ(lane.source(id), ref->second.source)
            << "width=" << width << " lane=" << r << " as=" << asn.to_string();
        EXPECT_EQ(lane.distance(id), ref->second.distance)
            << "width=" << width << " lane=" << r << " as=" << asn.to_string();
        if (ref->second.source != RouteSource::kOrigin) {
          ASSERT_GE(lane.next_hop(id), 0);
          EXPECT_EQ(sim.indexer().asn_of(lane.next_hop(id)).value(),
                    ref->second.next_hop)
              << "seed=" << GetParam() << " width=" << width << " lane=" << r
              << " origin=" << requests[r].origin.to_string()
              << " as=" << asn.to_string();
        } else {
          EXPECT_EQ(lane.next_hop(id), PropagationResult::kNoRoute);
        }
      }
    }
  };

  sim::BatchWorkspace workspace;
  const std::vector<sim::PropagationRequest> ten(requests.begin(),
                                                 requests.begin() + 10);
  std::vector<PropagationResult> lanes = sim.propagate_batch(ten, workspace);
  ASSERT_EQ(lanes.size(), ten.size());
  expect_oracle(lanes, sim::batch_width());

  sim::set_batch_width(16);
  lanes = sim.propagate_batch(requests, workspace);
  sim::set_batch_width(0);  // back to the environment's width
  ASSERT_EQ(lanes.size(), requests.size());
  expect_oracle(lanes, 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationOracleP,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Cache equivalence and sharing.

TEST(PropagationCache, CachedMatchesUncached) {
  util::Rng rng(4242);
  AsGraph graph = random_graph(rng, 24);
  auto policies = random_policies(rng, graph);
  PropagationSim sim(graph);
  for (const auto& [asn, policy] : policies) sim.set_policy(Asn(asn), policy);

  for (int a = 0; a < 12; ++a) {
    Asn origin(100 + static_cast<uint32_t>(rng.uniform(24)));
    AnnouncementClass cls = random_class(rng);
    PropagationResult plain = sim.propagate(origin, cls);
    sim::PropagationResultPtr cached = sim.propagate_cached(origin, cls);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(plain, *cached);
    // Second lookup must serve the identical object.
    EXPECT_EQ(sim.propagate_cached(origin, cls).get(), cached.get());
  }
  auto stats = sim.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(PropagationCache, EquivalentClassesShareOneEntry) {
  // With no filtering policies at all, every class has all-zero drop
  // masks: valid and invalid announcements at one origin must collapse
  // onto a single cached propagation.
  util::Rng rng(99);
  AsGraph graph = random_graph(rng, 16);
  PropagationSim sim(graph);

  Asn origin(105);
  AnnouncementClass valid;  // all defaults
  sim::PropagationResultPtr first = sim.propagate_cached(origin, valid);
  AnnouncementClass invalid;
  invalid.rpki_invalid = true;
  invalid.variant = 2;
  sim::PropagationResultPtr second = sim.propagate_cached(origin, invalid);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(sim.cache_stats().hits, 1u);
  EXPECT_EQ(sim.cache_stats().misses, 1u);
}

TEST(PropagationCache, ClearAndDisable) {
  util::Rng rng(7);
  AsGraph graph = random_graph(rng, 12);
  PropagationSim sim(graph);
  Asn origin(103);
  AnnouncementClass cls;
  PropagationResult plain = sim.propagate(origin, cls);

  ASSERT_TRUE(sim.cache_enabled());
  sim::PropagationResultPtr kept = sim.propagate_cached(origin, cls);
  EXPECT_EQ(sim.cache_stats().entries, 1u);
  sim.clear_cache();
  EXPECT_EQ(sim.cache_stats().entries, 0u);
  // Pointers returned before the clear stay valid.
  EXPECT_EQ(*kept, plain);

  sim.set_cache_enabled(false);
  sim::PropagationResultPtr uncached = sim.propagate_cached(origin, cls);
  EXPECT_EQ(sim.cache_stats().entries, 0u);
  EXPECT_EQ(*uncached, plain);
  sim.set_cache_enabled(true);
}

// Scenario-level byte equality: the full collector and hegemony outputs
// must not depend on whether the cache is on.

std::vector<sim::Announcement> classified_announcements(
    const topogen::Scenario& scenario) {
  std::vector<sim::Announcement> out;
  for (const ihr::PrefixOriginRecord& r :
       ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr)) {
    out.push_back(
        sim::Announcement{r.prefix, r.origin, ihr::announcement_class(r)});
  }
  return out;
}

std::string rib_bytes(const bgp::Rib& rib) {
  std::ostringstream out;
  mrt::TableDumpWriter writer(out, /*timestamp=*/1651363200);  // 2022-05-01
  writer.write_rib(rib, "oracle");
  return out.str();
}

std::string hegemony_bytes(const ihr::IhrSnapshot& snapshot) {
  std::ostringstream po, transit;
  ihr::write_prefix_origin_csv(po, snapshot.prefix_origins);
  ihr::write_transit_csv(transit, snapshot.transits);
  return po.str() + "\n---\n" + transit.str();
}

TEST(PropagationCache, CollectorBytesIdenticalCacheOnVsOff) {
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  auto announcements = classified_announcements(scenario);
  ASSERT_FALSE(announcements.empty());

  auto collect_bytes = [&](bool cache_on) {
    PropagationSim simulator = scenario.make_sim();
    simulator.set_cache_enabled(cache_on);
    sim::RouteCollector collector(simulator, scenario.vantage_points);
    return rib_bytes(collector.collect(announcements));
  };
  std::string on = collect_bytes(true);
  std::string off = collect_bytes(false);
  ASSERT_FALSE(on.empty());
  EXPECT_EQ(on, off);
}

TEST(PropagationCache, HegemonyBytesIdenticalCacheOnVsOff) {
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());

  auto snapshot_bytes = [&](bool cache_on) {
    PropagationSim simulator = scenario.make_sim();
    simulator.set_cache_enabled(cache_on);
    ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
    return hegemony_bytes(builder.build(scenario.announcements(),
                                        scenario.vrps, scenario.irr));
  };
  std::string on = snapshot_bytes(true);
  std::string off = snapshot_bytes(false);
  ASSERT_GT(on.size(), 100u);
  EXPECT_EQ(on, off);
}

TEST(PropagationCache, HegemonyStageReusesCollectorPropagations) {
  // The cross-stage contract the bench relies on: after the collector
  // has run, the hegemony builder's groups are all cache hits.
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  ASSERT_FALSE(announcements.empty());

  (void)collector.collect(announcements);
  auto after_collect = simulator.cache_stats();
  EXPECT_GT(after_collect.misses, 0u);
  EXPECT_GT(after_collect.entries, 0u);

  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
  (void)builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
  auto after_build = simulator.cache_stats();
  EXPECT_GT(after_build.hits, after_collect.hits);
  // Identical group structure: the second stage adds no new entries.
  EXPECT_EQ(after_build.entries, after_collect.entries);
}

TEST(PropagationCache, CapDoesNotChangeOutput) {
  // A 1 MiB cap (read when the simulator is built) must not change the
  // snapshot, and the cache must stay under it at every step. Tiny
  // scale's whole cache is about 0.6 MB, so the scenario is tiny's with
  // four times the ASes per population: the cap then holds only part of
  // the groups, and later builds mix hits with recomputed misses.
  topogen::ScenarioConfig config = topogen::ScenarioConfig::tiny();
  for (topogen::PopulationConfig* population :
       {&config.small_manrs, &config.medium_manrs, &config.large_manrs,
        &config.small_other, &config.medium_other, &config.large_other}) {
    population->count *= 4;
    population->quiet *= 4;
  }
  const topogen::Scenario scenario = topogen::build_scenario(config);
  ihr::IhrSnapshot uncapped;
  {
    PropagationSim simulator = scenario.make_sim();
    ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
    uncapped = builder.build(scenario.announcements(), scenario.vrps,
                             scenario.irr);
  }

  const char* saved = std::getenv("MANRS_PROP_CACHE_MB");
  const std::optional<std::string> previous =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  ::setenv("MANRS_PROP_CACHE_MB", "1", 1);
  PropagationSim simulator = scenario.make_sim();
  if (previous) {
    ::setenv("MANRS_PROP_CACHE_MB", previous->c_str(), 1);
  } else {
    ::unsetenv("MANRS_PROP_CACHE_MB");
  }

  constexpr size_t kCap = 1024 * 1024;
  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
  for (int round = 0; round < 2; ++round) {  // cold, then partly warm
    const ihr::IhrSnapshot capped =
        builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
    EXPECT_TRUE(capped == uncapped) << "round " << round;
    EXPECT_LE(simulator.cache_stats().bytes, kCap) << "round " << round;
  }
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  (void)collector.collect(classified_announcements(scenario));
  const sim::PropagationCacheStats stats = simulator.cache_stats();
  EXPECT_LE(stats.bytes, kCap);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.hits, 0u);
  // The cap bit: some results were computed but never cached.
  EXPECT_LT(stats.entries, stats.misses);
}

}  // namespace
}  // namespace manrs
