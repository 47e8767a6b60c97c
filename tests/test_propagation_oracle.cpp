// Oracle tests for the propagation engine.
//
// Two layers of defense:
//
//   * PropagationOracle: every route the engine computes -- through
//     propagate() (a one-lane sweep) and through multi-lane
//     propagate_batch() sweeps -- must equal the naive per-AS-decision
//     reference in propagation_oracle.h: route class, distance and the
//     chosen next hop, on random graphs with random filtering.
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
#include "propagation_oracle.h"
#include "simulator/collector.h"
#include "simulator/propagation.h"
#include "topogen/scenario.h"
#include "util/rng.h"

namespace manrs {
namespace {

using astopo::AsGraph;
using net::Asn;
using oracle::apply_policies;
using oracle::expect_matches_oracle;
using oracle::oracle_propagate;
using oracle::random_class;
using oracle::random_graph;
using oracle::random_policies;
using sim::AnnouncementClass;
using sim::PropagationResult;
using sim::PropagationSim;

/// `trials` random graphs of n_min + [0, n_spread) ASes with random
/// policies; six random (origin, class) propagate() calls on each, every
/// one checked against the oracle, and its materialized paths against
/// the oracle's distances (valley-free, loop-free, ending at the origin).
void expect_random_graphs_match(uint64_t seed, int trials, size_t n_min,
                                size_t n_spread) {
  util::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    size_t n = n_min + rng.uniform(n_spread);
    AsGraph graph = random_graph(rng, n);
    auto policies = random_policies(rng, graph);
    PropagationSim sim(graph);
    apply_policies(sim, policies);

    for (int a = 0; a < 6; ++a) {
      Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
      AnnouncementClass cls = random_class(rng);
      PropagationResult result = sim.propagate(origin, cls);
      auto oracle = oracle_propagate(graph, policies, origin, cls);
      expect_matches_oracle(sim, graph, result, oracle,
                            "seed=" + std::to_string(seed) +
                                " origin=" + origin.to_string());
      for (const auto& [asn, route] : oracle) {
        bgp::AsPath path = sim.path_from(result, Asn(asn));
        ASSERT_EQ(path.hops().size(), static_cast<size_t>(route.distance) + 1)
            << "seed=" << seed << " as=" << asn;
        EXPECT_EQ(path.origin(), origin);
        EXPECT_FALSE(path.has_loop());
      }
    }
  }
}

class PropagationOracleP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationOracleP, EveryPerAsDecisionMatches) {
  expect_random_graphs_match(GetParam(), 3, 10, 30);
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
  apply_policies(sim, policies);

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
      expect_matches_oracle(
          sim, graph, lanes[r],
          oracle_propagate(graph, policies, requests[r].origin,
                           requests[r].cls),
          "seed=" + std::to_string(GetParam()) +
              " width=" + std::to_string(width) + " lane=" +
              std::to_string(r) + " origin=" + requests[r].origin.to_string());
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

// More random graphs: four somewhat larger graphs per seed.
class PropagationOracleGraphsP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationOracleGraphsP, AgreesOnRandomGraphs) {
  expect_random_graphs_match(GetParam(), 4, 12, 28);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationOracleGraphsP,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006, 7007, 8008));

// ---------------------------------------------------------------------------
// Cache equivalence and sharing.

TEST(PropagationCache, CachedMatchesUncached) {
  util::Rng rng(4242);
  AsGraph graph = random_graph(rng, 24);
  auto policies = random_policies(rng, graph);
  PropagationSim sim(graph);
  apply_policies(sim, policies);

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
