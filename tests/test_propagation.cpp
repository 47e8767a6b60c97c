#include "simulator/propagation.h"

#include <gtest/gtest.h>

#include "simulator/collector.h"
#include "topogen/scenario.h"

namespace manrs::sim {
namespace {

using astopo::AsGraph;
using net::Asn;
using net::Prefix;

// Topology used throughout:
//
//        T1 ---- T2          (tier-1 peers)
//       /    |  |    |
//      A    B  C    D        (mid tier under T1/T1/T2/T2; A-B peers)
//      |    |  |    |
//      a    b  c    d        (stubs)
AsGraph test_graph() {
  AsGraph g;
  g.add_peer_peer(Asn(1), Asn(2));  // T1, T2
  g.add_provider_customer(Asn(1), Asn(11));  // A
  g.add_provider_customer(Asn(1), Asn(12));  // B
  g.add_provider_customer(Asn(2), Asn(13));  // C
  g.add_provider_customer(Asn(2), Asn(14));  // D
  g.add_peer_peer(Asn(11), Asn(12));
  g.add_provider_customer(Asn(11), Asn(101));  // a
  g.add_provider_customer(Asn(12), Asn(102));  // b
  g.add_provider_customer(Asn(13), Asn(103));  // c
  g.add_provider_customer(Asn(14), Asn(104));  // d
  return g;
}

TEST(Propagation, EveryoneReachesACleanAnnouncement) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(101), AnnouncementClass{});
  for (Asn asn : g.all_asns()) {
    int32_t id = sim.indexer().id_of(asn);
    EXPECT_TRUE(result.reached(id)) << asn.to_string();
  }
}

TEST(Propagation, RouteSourcesFollowGaoRexford) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(101), AnnouncementClass{});
  auto source_of = [&](uint32_t asn) {
    return result.source(sim.indexer().id_of(Asn(asn)));
  };
  EXPECT_EQ(source_of(101), RouteSource::kOrigin);
  EXPECT_EQ(source_of(11), RouteSource::kCustomer);  // from its customer
  EXPECT_EQ(source_of(1), RouteSource::kCustomer);   // via A
  EXPECT_EQ(source_of(12), RouteSource::kPeer);      // A--B peer link
  EXPECT_EQ(source_of(2), RouteSource::kPeer);       // T1--T2 peer link
  EXPECT_EQ(source_of(13), RouteSource::kProvider);  // down from T2
  EXPECT_EQ(source_of(103), RouteSource::kProvider);
  EXPECT_EQ(source_of(102), RouteSource::kProvider);  // down from B
}

TEST(Propagation, ValleyFreePathsOnly) {
  // b's route to a must be b <- B <- A <- a (via the A--B peer link),
  // never through T1-T2 (a peer route is not exported to a peer).
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(101), AnnouncementClass{});
  bgp::AsPath path = sim.path_from(result, Asn(102));
  EXPECT_EQ(path.to_string(), "AS102 AS12 AS11 AS101");
}

TEST(Propagation, PathFromUnreachedIsEmpty) {
  AsGraph g;
  g.add_provider_customer(Asn(1), Asn(2));
  g.add_as(Asn(99));  // isolated
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(2), AnnouncementClass{});
  EXPECT_TRUE(sim.path_from(result, Asn(99)).empty());
  EXPECT_FALSE(sim.path_from(result, Asn(1)).empty());
  // Unknown vantage.
  EXPECT_TRUE(sim.path_from(result, Asn(12345)).empty());
}

TEST(Propagation, UnknownOriginReachesNobody) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(9999), AnnouncementClass{});
  for (int32_t id = 0; id < static_cast<int32_t>(result.size()); ++id) {
    EXPECT_FALSE(result.reached(id));
    EXPECT_EQ(result.distance(id), PropagationResult::kNoDistance);
  }
}

TEST(Propagation, PrefersCustomerOverPeerOverProvider) {
  // D learns a's route only via its provider T2; C the same. A--B peering
  // gives B a peer route even though B could get a provider route via T1.
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(101), AnnouncementClass{});
  int32_t b_id = sim.indexer().id_of(Asn(12));
  EXPECT_EQ(result.source(b_id), RouteSource::kPeer);
  // Path length via the peer link: B -> A -> a = 2 hops.
  EXPECT_EQ(result.distance(b_id), 2);
}

TEST(Propagation, RovDropsInvalidEverywhereDownstream) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy rov;
  rov.rov = true;
  sim.set_policy(Asn(2), rov);  // T2 deploys ROV

  AnnouncementClass invalid;
  invalid.rpki_invalid = true;
  auto result = sim.propagate(Asn(101), invalid);
  auto reached = [&](uint32_t asn) {
    return result.reached(sim.indexer().id_of(Asn(asn)));
  };
  EXPECT_FALSE(reached(2));
  // C, D, c, d sit behind T2 only: unreachable.
  EXPECT_FALSE(reached(13));
  EXPECT_FALSE(reached(104));
  // The rest still gets the route.
  EXPECT_TRUE(reached(1));
  EXPECT_TRUE(reached(102));

  // A valid announcement is unaffected by ROV.
  auto valid_result = sim.propagate(Asn(101), AnnouncementClass{});
  EXPECT_TRUE(valid_result.reached(sim.indexer().id_of(Asn(104))));
}

TEST(Propagation, RovIgnoresIrrOnlyInvalid) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy rov;
  rov.rov = true;
  sim.set_policy(Asn(2), rov);
  AnnouncementClass irr_invalid;
  irr_invalid.irr_invalid = true;
  auto result = sim.propagate(Asn(101), irr_invalid);
  EXPECT_TRUE(result.reached(sim.indexer().id_of(Asn(104))));
}

TEST(Propagation, CustomerFilterStrictnessIsPartial) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy partial;
  partial.customer_strictness = 2;  // drops variants 0 and 1
  sim.set_policy(Asn(11), partial);  // A filters its customer a

  AnnouncementClass dropped;
  dropped.irr_invalid = true;
  dropped.variant = 1;
  auto result = sim.propagate(Asn(101), dropped);
  EXPECT_FALSE(result.reached(sim.indexer().id_of(Asn(11))));

  AnnouncementClass leaked = dropped;
  leaked.variant = 3;
  result = sim.propagate(Asn(101), leaked);
  EXPECT_TRUE(result.reached(sim.indexer().id_of(Asn(11))));
}

TEST(Propagation, CustomerFilterOnlyAppliesToCustomerRoutes) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy strict;
  strict.customer_strictness = kFilterVariants;
  sim.set_policy(Asn(13), strict);  // C filters customers only

  AnnouncementClass invalid;
  invalid.irr_invalid = true;
  invalid.variant = 0;
  // a's announcement arrives at C from its PROVIDER T2, so the customer
  // filter does not apply.
  auto result = sim.propagate(Asn(101), invalid);
  EXPECT_TRUE(result.reached(sim.indexer().id_of(Asn(13))));
  // c's own announcement arrives at C from the customer: dropped.
  result = sim.propagate(Asn(103), invalid);
  EXPECT_FALSE(result.reached(sim.indexer().id_of(Asn(13))));
}

TEST(Propagation, PeerFilterDropsAtPeerEdge) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy peer_filter;
  peer_filter.peer_strictness = kFilterVariants;
  sim.set_policy(Asn(12), peer_filter);  // B filters peers

  AnnouncementClass invalid;
  invalid.irr_invalid = true;
  auto result = sim.propagate(Asn(101), invalid);
  // B refuses the A--B peer route but still learns via its provider T1.
  int32_t b = sim.indexer().id_of(Asn(12));
  EXPECT_TRUE(result.reached(b));
  EXPECT_EQ(result.source(b), RouteSource::kProvider);
}

TEST(Propagation, DeterministicTieBreakByLowestAsn) {
  // Two equally long provider paths: next hop must be the lowest ASN.
  AsGraph g;
  g.add_provider_customer(Asn(10), Asn(1));
  g.add_provider_customer(Asn(20), Asn(1));
  g.add_provider_customer(Asn(30), Asn(10));
  g.add_provider_customer(Asn(30), Asn(20));
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(1), AnnouncementClass{});
  bgp::AsPath path = sim.path_from(result, Asn(30));
  EXPECT_EQ(path.to_string(), "AS30 AS10 AS1");
}

TEST(Propagation, PathStatusDistinguishesNoRouteFromOk) {
  AsGraph g;
  g.add_provider_customer(Asn(1), Asn(2));
  g.add_as(Asn(99));  // isolated
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(2), AnnouncementClass{});

  PathStatus status = PathStatus::kBrokenChain;
  EXPECT_FALSE(sim.path_from(result, Asn(1), &status).empty());
  EXPECT_EQ(status, PathStatus::kOk);
  EXPECT_TRUE(sim.path_from(result, Asn(99), &status).empty());
  EXPECT_EQ(status, PathStatus::kNoRoute);
  EXPECT_TRUE(sim.path_from(result, Asn(12345), &status).empty());
  EXPECT_EQ(status, PathStatus::kNoRoute);
}

TEST(Propagation, PathStatusFlagsCorruptedNextHopChain) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  auto result = sim.propagate(Asn(101), AnnouncementClass{});
  const int32_t b = sim.indexer().id_of(Asn(102));
  const int32_t a = sim.indexer().id_of(Asn(101));
  ASSERT_GE(b, 0);
  ASSERT_GE(a, 0);

  // A cycle: b's chain loops back to itself instead of descending.
  PropagationResult cycle = result;
  cycle.words[static_cast<size_t>(b)] =
      PropagationResult::pack(cycle.source(b), b);
  PathStatus status = PathStatus::kOk;
  EXPECT_TRUE(sim.path_from(cycle, Asn(102), &status).empty());
  EXPECT_EQ(status, PathStatus::kBrokenChain);

  // A hop pointing at an AS that never installed a route.
  PropagationResult dangling = result;
  dangling.words[static_cast<size_t>(a)] =
      PropagationResult::pack(RouteSource::kNone, PropagationResult::kNoRoute);
  // 102's chain runs ... -> 101 (the origin), which now claims no route.
  EXPECT_TRUE(sim.path_from(dangling, Asn(102), &status).empty());
  EXPECT_EQ(status, PathStatus::kBrokenChain);

  // An out-of-range id in the chain.
  PropagationResult wild = result;
  wild.words[static_cast<size_t>(b)] =
      PropagationResult::pack(wild.source(b), 1 << 20);
  EXPECT_TRUE(sim.path_from(wild, Asn(102), &status).empty());
  EXPECT_EQ(status, PathStatus::kBrokenChain);

  // The untouched result still reconstructs fine (and the non-status
  // overload keeps its "empty on any failure" contract).
  EXPECT_FALSE(sim.path_from(result, Asn(102)).empty());
  EXPECT_TRUE(sim.path_from(cycle, Asn(102)).empty());
}

TEST(Propagation, FilterVariantIsStdlibIndependent) {
  // The variant bucket folds into scenario and dataset bytes, so it must
  // be the documented FNV-1a of the prefix wire bytes -- not std::hash.
  // These values are fixed-point constants of that definition; if this
  // test fails, goldens produced on other platforms no longer match.
  EXPECT_EQ(filter_variant(net::Prefix::must_parse("10.0.0.0/8")), 3);
  EXPECT_EQ(filter_variant(net::Prefix::must_parse("192.168.0.0/16")), 1);
  EXPECT_EQ(filter_variant(net::Prefix::must_parse("2001:db8::/32")), 1);
  // Stable across calls and distinct inputs spread across buckets.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(filter_variant(net::Prefix::must_parse("10.0.0.0/8")),
              filter_variant(net::Prefix::must_parse("10.0.0.0/8")));
  }
}

TEST(PropagationResult, PackRoundTripsEverySourceAndHop) {
  const RouteSource sources[] = {RouteSource::kNone, RouteSource::kProvider,
                                 RouteSource::kPeer, RouteSource::kCustomer,
                                 RouteSource::kOrigin};
  const int32_t hops[] = {
      0, static_cast<int32_t>(PropagationResult::kHopNone - 1),
      PropagationResult::kNoRoute};
  PropagationResult result;
  for (RouteSource src : sources) {
    for (int32_t hop : hops) {
      result.words = {PropagationResult::pack(src, hop)};
      EXPECT_EQ(result.source(0), src) << "hop=" << hop;
      EXPECT_EQ(result.next_hop(0), hop) << "src=" << static_cast<int>(src);
      EXPECT_EQ(result.reached(0), src != RouteSource::kNone);
    }
  }
  // The unreached word is exactly the none source with no hop.
  EXPECT_EQ(PropagationResult::pack(RouteSource::kNone,
                                    PropagationResult::kNoRoute),
            PropagationResult::kHopNone);
}

TEST(PropagationResult, DistanceIsTheChainLength) {
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  const PropagationSim sim = scenario.make_sim();
  const int32_t n = static_cast<int32_t>(sim.indexer().size());
  AnnouncementClass rpki_invalid;
  rpki_invalid.rpki_invalid = true;
  AnnouncementClass irr_invalid;
  irr_invalid.irr_invalid = true;
  irr_invalid.variant = 1;
  size_t reached = 0;
  size_t unreached = 0;
  for (size_t p = 0; p < scenario.profiles.size(); p += 23) {
    for (const AnnouncementClass& cls :
         {AnnouncementClass{}, rpki_invalid, irr_invalid}) {
      const Asn origin = scenario.profiles[p].asn;
      const PropagationResult result = sim.propagate(origin, cls);
      ASSERT_EQ(result.size(), static_cast<size_t>(n));
      for (int32_t id = 0; id < n; ++id) {
        if (!result.reached(id)) {
          EXPECT_EQ(result.distance(id), PropagationResult::kNoDistance);
          ++unreached;
          continue;
        }
        const bgp::AsPath path = sim.path_from(result, sim.indexer().asn_of(id));
        ASSERT_FALSE(path.empty()) << origin.to_string();
        EXPECT_EQ(result.distance(id), path.hops().size() - 1)
            << origin.to_string() << " -> "
            << sim.indexer().asn_of(id).to_string();
        ++reached;
      }
    }
  }
  EXPECT_GT(reached, 0u);
  EXPECT_GT(unreached, 0u);  // the filtered classes leave some ASes dark
}

TEST(Collector, GroupsByOriginAndClass) {
  std::vector<Announcement> anns;
  anns.push_back({Prefix::must_parse("10.0.0.0/8"), Asn(1), {}});
  anns.push_back({Prefix::must_parse("11.0.0.0/8"), Asn(1), {}});
  AnnouncementClass inv;
  inv.rpki_invalid = true;
  inv.variant = 2;
  anns.push_back({Prefix::must_parse("12.0.0.0/8"), Asn(1), inv});
  anns.push_back({Prefix::must_parse("13.0.0.0/8"), Asn(2), {}});
  // A valid announcement with a nonzero variant still groups with the
  // other valid ones (variant only matters for invalid routes).
  AnnouncementClass valid_variant;
  valid_variant.variant = 3;
  anns.push_back({Prefix::must_parse("14.0.0.0/8"), Asn(1), valid_variant});

  auto groups = group_announcements(anns);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].origin, Asn(1));
  EXPECT_EQ(groups[0].prefixes.size(), 3u);  // 10/8, 11/8, 14/8
  EXPECT_EQ(groups[1].origin, Asn(1));
  EXPECT_TRUE(groups[1].cls.rpki_invalid);
  EXPECT_EQ(groups[2].origin, Asn(2));
}

TEST(Collector, BuildsRibWithPeerPaths) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  RouteCollector collector(sim, {Asn(13), Asn(14)});
  std::vector<Announcement> anns;
  anns.push_back({Prefix::must_parse("10.0.0.0/8"), Asn(101), {}});
  bgp::Rib rib = collector.collect(anns);
  EXPECT_EQ(rib.peer_count(), 2u);
  auto entries = rib.entries(Prefix::must_parse("10.0.0.0/8"));
  ASSERT_EQ(entries.size(), 2u);
  // Both vantage paths terminate at the origin.
  for (const auto& e : entries) {
    EXPECT_EQ(e.path.origin(), Asn(101));
  }
}

TEST(Collector, FilteredAnnouncementsMissingFromRib) {
  AsGraph g = test_graph();
  PropagationSim sim(g);
  FilterPolicy rov;
  rov.rov = true;
  sim.set_policy(Asn(2), rov);
  RouteCollector collector(sim, {Asn(13)});  // vantage behind T2

  AnnouncementClass inv;
  inv.rpki_invalid = true;
  std::vector<Announcement> anns;
  anns.push_back({Prefix::must_parse("10.0.0.0/8"), Asn(101), inv});
  anns.push_back({Prefix::must_parse("11.0.0.0/8"), Asn(101), {}});
  bgp::Rib rib = collector.collect(anns);
  EXPECT_TRUE(rib.entries(Prefix::must_parse("10.0.0.0/8")).empty());
  EXPECT_EQ(rib.entries(Prefix::must_parse("11.0.0.0/8")).size(), 1u);
}

}  // namespace
}  // namespace manrs::sim
