// IhrSnapshotBuilder behaviour on a hand-built topology where every
// expected record can be reasoned out exactly.
#include <gtest/gtest.h>

#include <memory>

#include "ihr/dataset.h"
#include "irr/database.h"
#include "simulator/propagation.h"

namespace manrs::ihr {
namespace {

using net::Asn;
using net::Prefix;

// Chain topology with two vantage points:
//
//   V1 (AS10) --customer--> T (AS20) --customer--> O (AS30)
//   V2 (AS11) --customer--> T
//
// (V1/V2 are providers of T; T is the provider of O.)
struct Fixture {
  astopo::AsGraph graph;
  rpki::VrpStore vrps;
  irr::IrrRegistry irr;

  Fixture() {
    graph.add_provider_customer(Asn(10), Asn(20));
    graph.add_provider_customer(Asn(11), Asn(20));
    graph.add_provider_customer(Asn(20), Asn(30));
    vrps.add({Prefix::must_parse("10.0.0.0/16"), 16, Asn(30)});
    auto& db = irr.add_database("RADB", false);
    irr::RouteObject route;
    route.prefix = Prefix::must_parse("10.1.0.0/16");
    route.origin = Asn(99);  // wrong origin -> IRR Invalid for AS30
    db.add_route(route);
  }
};

TEST(IhrBuilder, ClassifiesAndBuildsTransits) {
  Fixture f;
  sim::PropagationSim simulator(f.graph);
  IhrSnapshotBuilder builder(simulator, {Asn(10), Asn(11)}, /*trim=*/0.0);

  std::vector<bgp::PrefixOrigin> announcements{
      {Prefix::must_parse("10.0.0.0/16"), Asn(30)},  // RPKI Valid
      {Prefix::must_parse("10.1.0.0/16"), Asn(30)},  // IRR Invalid
      {Prefix::must_parse("10.2.0.0/16"), Asn(30)},  // both NotFound
  };
  IhrSnapshot snapshot = builder.build(announcements, f.vrps, f.irr);

  ASSERT_EQ(snapshot.prefix_origins.size(), 3u);
  EXPECT_EQ(snapshot.prefix_origins[0].rpki, rpki::RpkiStatus::kValid);
  EXPECT_EQ(snapshot.prefix_origins[0].irr, irr::IrrStatus::kNotFound);
  EXPECT_EQ(snapshot.prefix_origins[1].rpki, rpki::RpkiStatus::kNotFound);
  EXPECT_EQ(snapshot.prefix_origins[1].irr, irr::IrrStatus::kInvalidAsn);
  EXPECT_EQ(snapshot.prefix_origins[2].rpki, rpki::RpkiStatus::kNotFound);
  EXPECT_EQ(snapshot.prefix_origins[2].irr, irr::IrrStatus::kNotFound);
  // Both vantage points see every announcement (no filters installed).
  for (const auto& record : snapshot.prefix_origins) {
    EXPECT_EQ(record.visibility, 2u) << record.prefix.to_string();
  }

  // Transit records: AS20 is on both vantage paths toward every prefix;
  // hegemony 1.0; it learned the routes from its customer AS30. The
  // origin itself is excluded (the "trivial transit").
  ASSERT_EQ(snapshot.transits.size(), 3u);
  for (const auto& transit : snapshot.transits) {
    EXPECT_EQ(transit.transit, Asn(20));
    EXPECT_DOUBLE_EQ(transit.hegemony, 1.0);
    EXPECT_TRUE(transit.via_customer);
    EXPECT_EQ(transit.origin, Asn(30));
  }
  // Statuses are carried onto the transit records (Formulas 4-6 need
  // them).
  EXPECT_EQ(snapshot.transits[1].irr, irr::IrrStatus::kInvalidAsn);
}

TEST(IhrBuilder, MemoServesViewsOnlyWhileTheCacheKeepsTheResult) {
  Fixture f;
  sim::PropagationSim simulator(f.graph);
  IhrSnapshotBuilder builder(simulator, {Asn(10), Asn(11)}, /*trim=*/0.0);
  const std::vector<PrefixOriginRecord> records = classify(
      {{Prefix::must_parse("10.0.0.0/16"), Asn(30)},   // RPKI Valid
       {Prefix::must_parse("10.1.0.0/16"), Asn(30)},   // IRR Invalid
       {Prefix::must_parse("10.2.0.0/16"), Asn(30)}},  // both NotFound
      f.vrps, f.irr);
  const IhrSnapshot plain = builder.build(records);

  HegemonyMemo memo;
  EXPECT_EQ(builder.build(records, &memo), plain);
  EXPECT_EQ(memo.groups(), 2u);  // AS30 droppable and not
  EXPECT_EQ(memo.reused(), 0u);
  EXPECT_EQ(builder.build(records, &memo), plain);
  EXPECT_EQ(memo.reused(), 2u);

  // The memo does not keep a result alive: once the cache drops it, it is
  // freed, and the next build serves no view from the memo.
  const std::weak_ptr<const sim::PropagationResult> result =
      simulator.propagate_cached(Asn(30), announcement_class(records[0]));
  EXPECT_FALSE(result.expired());
  simulator.clear_cache();
  EXPECT_TRUE(result.expired());
  EXPECT_EQ(builder.build(records, &memo), plain);
  EXPECT_EQ(memo.groups(), 2u);
  EXPECT_EQ(memo.reused(), 0u);
}

TEST(IhrBuilder, FilteredAnnouncementsLoseVisibility) {
  Fixture f;
  sim::PropagationSim simulator(f.graph);
  sim::FilterPolicy strict;
  strict.customer_strictness = sim::kFilterVariants;
  simulator.set_policy(Asn(20), strict);  // T filters its customer O
  IhrSnapshotBuilder builder(simulator, {Asn(10), Asn(11)}, 0.0);

  std::vector<bgp::PrefixOrigin> announcements{
      {Prefix::must_parse("10.1.0.0/16"), Asn(30)},  // IRR Invalid: dropped
      {Prefix::must_parse("10.0.0.0/16"), Asn(30)},  // Valid: passes
  };
  IhrSnapshot snapshot = builder.build(announcements, f.vrps, f.irr);
  ASSERT_EQ(snapshot.prefix_origins.size(), 2u);
  EXPECT_EQ(snapshot.prefix_origins[0].visibility, 0u);
  EXPECT_EQ(snapshot.prefix_origins[1].visibility, 2u);
  // The dropped announcement contributes no transit records.
  ASSERT_EQ(snapshot.transits.size(), 1u);
  EXPECT_EQ(snapshot.transits[0].prefix, Prefix::must_parse("10.0.0.0/16"));
}

TEST(IhrBuilder, ViaCustomerFalseForPeerLearnedRoutes) {
  // The vantage V is a customer of A; A peers with B; B is the origin's
  // provider. V's (valley-free) path is V <- A <- B <- O, where A learned
  // the route from its PEER and B from its CUSTOMER:
  //
  //   A (AS20) --peer-- B (AS21)
  //      |                 |
  //   V (AS10)          O (AS30)
  astopo::AsGraph graph;
  graph.add_provider_customer(Asn(20), Asn(10));
  graph.add_peer_peer(Asn(20), Asn(21));
  graph.add_provider_customer(Asn(21), Asn(30));
  sim::PropagationSim simulator(graph);
  rpki::VrpStore vrps;
  irr::IrrRegistry irr_registry;
  IhrSnapshotBuilder builder(simulator, {Asn(10)}, 0.0);

  IhrSnapshot snapshot = builder.build(
      {{Prefix::must_parse("10.0.0.0/16"), Asn(30)}}, vrps, irr_registry);
  // Path: 10 -> 20 -> 21 -> 30. AS20 learned from peer AS21 (not a
  // customer); AS21 learned from customer AS30.
  ASSERT_EQ(snapshot.transits.size(), 2u);
  for (const auto& transit : snapshot.transits) {
    if (transit.transit == Asn(20)) {
      EXPECT_FALSE(transit.via_customer);
    }
    if (transit.transit == Asn(21)) {
      EXPECT_TRUE(transit.via_customer);
    }
  }
}

TEST(IhrBuilder, TrimRemovesSingleVantageTransit) {
  // 20 vantage points; one reaches the origin through a side AS that no
  // other vantage uses -> trimmed away at 10%.
  astopo::AsGraph graph;
  for (uint32_t v = 100; v < 119; ++v) {
    graph.add_provider_customer(Asn(v), Asn(20));
  }
  graph.add_provider_customer(Asn(20), Asn(30));
  // Vantage 119 reaches AS30 via its own private transit AS50.
  graph.add_provider_customer(Asn(119), Asn(50));
  graph.add_provider_customer(Asn(50), Asn(30));
  sim::PropagationSim simulator(graph);
  rpki::VrpStore vrps;
  irr::IrrRegistry irr_registry;

  std::vector<Asn> vantages;
  for (uint32_t v = 100; v < 120; ++v) vantages.emplace_back(v);

  IhrSnapshotBuilder untrimmed(simulator, vantages, 0.0);
  auto snap0 = untrimmed.build(
      {{Prefix::must_parse("10.0.0.0/16"), Asn(30)}}, vrps, irr_registry);
  bool saw_50 = false;
  for (const auto& t : snap0.transits) saw_50 |= t.transit == Asn(50);
  EXPECT_TRUE(saw_50);

  IhrSnapshotBuilder trimmed(simulator, vantages, 0.1);
  auto snap1 = trimmed.build(
      {{Prefix::must_parse("10.0.0.0/16"), Asn(30)}}, vrps, irr_registry);
  for (const auto& t : snap1.transits) {
    EXPECT_NE(t.transit, Asn(50));
  }
}

}  // namespace
}  // namespace manrs::ihr
