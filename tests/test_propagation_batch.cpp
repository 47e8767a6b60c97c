// Batched propagation engine tests.
//
// Three layers:
//
//   * PropagationBatch: multi-lane sweeps (propagate_batch) must equal
//     one-lane sweeps (propagate()) result-for-result at every lane width
//     -- a non-power-of-two, the full 64, and a width larger than the
//     request count; on a p2c cycle every width, 1 included, must equal
//     the naive oracle; a chain at the edge of the lane key's distance
//     field must equal its closed-form routes (deeper ones must throw);
//     and the batched propagate_cached() front end must share memo
//     entries (and hit/miss accounting) with the single-call overload.
//   * PropagationBatchPaths: extract_paths() views must match path_from
//     hop-for-hop, including no-route vantages, the origin itself, and
//     unknown ASNs, while the arena's suffix memo actually shares hops.
//   * PropagationBatchGolden: full collector RIBs and hegemony CSVs must
//     be byte-identical to one-lane sweeps across the thread x grain x
//     batch-width matrix. The one-lane golden is produced by pre-warming
//     the propagation cache through propagate_cached(origin, cls) -- the
//     batched front end then serves only one-lane results -- plus, for
//     the collector, an explicit path_from + merge_group_entries
//     reference build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "ihr/dataset.h"
#include "mrt/table_dump.h"
#include "propagation_oracle.h"
#include "simulator/collector.h"
#include "simulator/propagation.h"
#include "topogen/scenario.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace manrs {
namespace {

using astopo::AsGraph;
using net::Asn;
using oracle::random_class;
using oracle::random_graph;
using sim::AnnouncementClass;
using sim::PropagationRequest;
using sim::PropagationResult;
using sim::PropagationSim;

// Restores the lane width (and the thread/grain knobs the golden matrix
// touches) no matter how a test exits.
struct EngineKnobGuard {
  ~EngineKnobGuard() {
    sim::set_batch_width(0);
    util::set_thread_count(0);
    util::set_grain(0);
  }
};

/// A request mix that exercises every batched code path: valid + invalid
/// classes (different effective drop signatures), duplicate (origin,
/// class) pairs, and one unknown origin.
std::vector<PropagationRequest> mixed_requests(util::Rng& rng, size_t n,
                                               size_t count) {
  std::vector<PropagationRequest> requests;
  requests.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
    AnnouncementClass cls =
        rng.bernoulli(0.3) ? AnnouncementClass{} : random_class(rng);
    requests.push_back(PropagationRequest{origin, cls});
    if (rng.bernoulli(0.2) && requests.size() < count) {
      requests.push_back(requests.back());  // duplicate lane
      ++r;
    }
  }
  requests[count / 2].origin = Asn(99999999);  // unknown to the graph
  return requests;
}

void expect_result_eq(const PropagationResult& got,
                      const PropagationResult& want, size_t request,
                      size_t width) {
  EXPECT_EQ(got, want) << "request=" << request << " width=" << width;
}

TEST(PropagationBatch, MatchesOneLaneSweepsAcrossWidths) {
  // The baseline is propagate(), one one-lane sweep per request, itself
  // checked against the naive oracle; wider sweeps must not let lanes
  // interact.
  EngineKnobGuard guard;
  util::Rng rng(20260801);
  const size_t n = 40;
  AsGraph graph = random_graph(rng, n);
  const oracle::Policies policies = oracle::random_policies(rng, graph);
  PropagationSim sim(graph);
  oracle::apply_policies(sim, policies);

  // 90 requests: at width 64 that is one full sweep plus a partial one.
  std::vector<PropagationRequest> requests = mixed_requests(rng, n, 90);
  std::vector<PropagationResult> one_lane;
  one_lane.reserve(requests.size());
  for (const PropagationRequest& req : requests) {
    one_lane.push_back(sim.propagate(req.origin, req.cls));
    oracle::expect_matches_oracle(
        sim, graph, one_lane.back(),
        oracle::oracle_propagate(graph, policies, req.origin, req.cls),
        "request=" + std::to_string(one_lane.size() - 1));
  }

  for (size_t width : {size_t{7}, size_t{64}}) {
    sim::set_batch_width(width);
    ASSERT_EQ(sim::batch_width(), width);
    std::vector<PropagationResult> lanes = sim.propagate_batch(requests);
    ASSERT_EQ(lanes.size(), requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      expect_result_eq(lanes[r], one_lane[r], r, width);
    }
  }

  // Width larger than the whole request list: one short sweep.
  sim::set_batch_width(64);
  std::vector<PropagationRequest> few(requests.begin(), requests.begin() + 5);
  std::vector<PropagationResult> lanes = sim.propagate_batch(few);
  for (size_t r = 0; r < few.size(); ++r) {
    expect_result_eq(lanes[r], one_lane[r], r, 64);
  }
}

TEST(PropagationBatch, WorkspaceReuseAcrossSweeps) {
  // One lane workspace reused across batches of varying width and lane
  // count must leave no state behind between sweeps.
  EngineKnobGuard guard;
  util::Rng rng(715);
  const size_t n = 28;
  AsGraph graph = random_graph(rng, n);
  PropagationSim sim(graph);
  oracle::apply_policies(sim, oracle::random_policies(rng, graph));

  sim::BatchWorkspace reused;
  for (size_t round = 0; round < 4; ++round) {
    sim::set_batch_width(round + 1);  // 1, 2, 3, 4 lanes per sweep
    std::vector<PropagationRequest> requests =
        mixed_requests(rng, n, 6 + 3 * round);
    std::vector<PropagationResult> warm = sim.propagate_batch(requests,
                                                              reused);
    for (size_t r = 0; r < requests.size(); ++r) {
      sim::BatchWorkspace fresh;
      std::vector<PropagationResult> cold =
          sim.propagate_batch({requests[r]}, fresh);
      expect_result_eq(warm[r], cold[0], r, round + 1);
    }
  }
}

TEST(PropagationBatch, WidthKnobReadsEnvironment) {
  EngineKnobGuard guard;
  ASSERT_EQ(setenv("MANRS_BATCH_WIDTH", "7", 1), 0);
  sim::set_batch_width(0);  // re-read the environment
  EXPECT_EQ(sim::batch_width(), 7u);
  ASSERT_EQ(setenv("MANRS_BATCH_WIDTH", "100", 1), 0);
  sim::set_batch_width(0);
  EXPECT_EQ(sim::batch_width(), sim::kMaxBatchLanes);  // clamped
  ASSERT_EQ(unsetenv("MANRS_BATCH_WIDTH"), 0);
  sim::set_batch_width(0);
  EXPECT_EQ(sim::batch_width(), sim::kMaxBatchLanes);  // default
  sim::set_batch_width(3);
  EXPECT_EQ(sim::batch_width(), 3u);
}

TEST(PropagationBatch, CachedBatchSharesEntriesWithSingleCalls) {
  EngineKnobGuard guard;
  util::Rng rng(1177);
  const size_t n = 24;
  AsGraph graph = random_graph(rng, n);
  PropagationSim sim(graph);
  oracle::apply_policies(sim, oracle::random_policies(rng, graph));
  ASSERT_TRUE(sim.cache_enabled());

  std::vector<PropagationRequest> requests = mixed_requests(rng, n, 40);
  sim::set_batch_width(7);
  std::vector<sim::PropagationResultPtr> batched =
      sim.propagate_cached(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    ASSERT_NE(batched[r], nullptr) << r;
    // Values equal an uncached one-lane sweep...
    PropagationResult plain = sim.propagate(requests[r].origin,
                                            requests[r].cls);
    expect_result_eq(*batched[r], plain, r, 7);
    // ...and known origins share the exact memo object a single-request
    // cached call serves.
    if (sim.indexer().id_of(requests[r].origin) >= 0) {
      EXPECT_EQ(sim.propagate_cached(requests[r].origin, requests[r].cls)
                    .get(),
                batched[r].get())
          << r;
    }
  }
}

TEST(PropagationBatch, CachedBatchCountsDuplicatesAsHits) {
  // The batched front end must account exactly like the same sequence of
  // single-request calls: first occurrence of a missing key is one miss,
  // every later occurrence in the same batch is a hit.
  EngineKnobGuard guard;
  util::Rng rng(31);
  AsGraph graph = random_graph(rng, 16);
  PropagationSim sim(graph);

  AnnouncementClass valid;
  std::vector<PropagationRequest> requests{
      PropagationRequest{Asn(101), valid},
      PropagationRequest{Asn(101), valid},  // duplicate of the pending miss
      PropagationRequest{Asn(105), valid},
  };
  std::vector<sim::PropagationResultPtr> first =
      sim.propagate_cached(requests);
  EXPECT_EQ(first[0].get(), first[1].get());
  auto stats = sim.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // A second identical batch is all hits against the installed entries.
  std::vector<sim::PropagationResultPtr> second =
      sim.propagate_cached(requests);
  for (size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(second[r].get(), first[r].get());
  }
  stats = sim.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PropagationBatch, CachedBatchWithCacheDisabled) {
  EngineKnobGuard guard;
  util::Rng rng(92);
  const size_t n = 20;
  AsGraph graph = random_graph(rng, n);
  PropagationSim sim(graph);
  oracle::apply_policies(sim, oracle::random_policies(rng, graph));
  sim.set_cache_enabled(false);

  std::vector<PropagationRequest> requests = mixed_requests(rng, n, 12);
  std::vector<sim::PropagationResultPtr> batched =
      sim.propagate_cached(requests);
  for (size_t r = 0; r < requests.size(); ++r) {
    ASSERT_NE(batched[r], nullptr);
    PropagationResult plain = sim.propagate(requests[r].origin,
                                            requests[r].cls);
    expect_result_eq(*batched[r], plain, r, sim::batch_width());
  }
  EXPECT_EQ(sim.cache_stats().entries, 0u);
  sim.set_cache_enabled(true);
}

TEST(PropagationBatch, UnknownOriginYieldsAllNone) {
  EngineKnobGuard guard;
  util::Rng rng(55);
  AsGraph graph = random_graph(rng, 10);
  PropagationSim sim(graph);

  std::vector<PropagationRequest> requests{
      PropagationRequest{Asn(424242), AnnouncementClass{}}};
  std::vector<PropagationResult> lanes = sim.propagate_batch(requests);
  std::vector<sim::PropagationResultPtr> cached =
      sim.propagate_cached(requests);
  ASSERT_EQ(lanes[0].size(), sim.indexer().size());
  for (int32_t i = 0; i < static_cast<int32_t>(lanes[0].size()); ++i) {
    EXPECT_EQ(lanes[0].source(i), sim::RouteSource::kNone);
    EXPECT_EQ(lanes[0].next_hop(i), PropagationResult::kNoRoute);
    EXPECT_EQ(cached[0]->source(i), sim::RouteSource::kNone);
  }
}

TEST(PropagationBatch, CyclicHierarchyMatchesSingle) {
  // A p2c cycle 110 -> 111 -> 112 -> 113 -> 110 (provider -> customer)
  // fed from above at 113 and 111, with customers, peers and filtering
  // ASes around it. The descent order cannot be topological here, so the
  // lane engine iterates its pass to the fixpoint; every lane must still
  // equal the naive oracle, at scalar and vector widths.
  EngineKnobGuard guard;
  AsGraph graph;
  auto p2c = [&](uint32_t provider, uint32_t customer) {
    graph.add_provider_customer(Asn(provider), Asn(customer));
  };
  p2c(100, 102);
  p2c(101, 103);
  p2c(101, 104);
  p2c(110, 111);
  p2c(111, 112);
  p2c(112, 113);
  p2c(113, 110);
  p2c(102, 113);
  p2c(103, 111);
  p2c(110, 120);
  p2c(112, 121);
  p2c(121, 122);
  p2c(120, 122);
  p2c(113, 123);
  graph.add_peer_peer(Asn(100), Asn(101));
  graph.add_peer_peer(Asn(102), Asn(103));
  graph.add_peer_peer(Asn(104), Asn(112));
  graph.add_peer_peer(Asn(120), Asn(123));

  oracle::Policies policies;
  policies[110].customer_strictness = sim::kFilterVariants;  // strict
  policies[112].rov = true;
  policies[103].peer_strictness = 2;      // leaky peer filter
  policies[121].customer_strictness = 1;  // leaky customer filter
  PropagationSim sim(graph);
  oracle::apply_policies(sim, policies);

  AnnouncementClass rpki_invalid;
  rpki_invalid.rpki_invalid = true;
  AnnouncementClass irr_invalid;
  irr_invalid.irr_invalid = true;
  irr_invalid.variant = 3;
  AnnouncementClass both_invalid{true, true, 1};
  std::vector<PropagationRequest> requests;
  for (Asn origin : graph.all_asns()) {
    for (const AnnouncementClass& cls :
         {AnnouncementClass{}, rpki_invalid, irr_invalid, both_invalid}) {
      requests.push_back(PropagationRequest{origin, cls});
    }
  }
  std::vector<std::map<uint32_t, oracle::OracleRoute>> oracles;
  for (const PropagationRequest& req : requests) {
    oracles.push_back(
        oracle::oracle_propagate(graph, policies, req.origin, req.cls));
  }
  for (size_t width : {size_t{1}, size_t{7}, size_t{8}, size_t{64}}) {
    sim::set_batch_width(width);
    std::vector<PropagationResult> lanes = sim.propagate_batch(requests);
    ASSERT_EQ(lanes.size(), requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      oracle::expect_matches_oracle(
          sim, graph, lanes[r], oracles[r],
          "width=" + std::to_string(width) + " request=" + std::to_string(r));
    }
  }
}

TEST(PropagationBatch, DistanceFieldGuard) {
  // 16,384 ASes need 15-bit hop ids, leaving 15 distance bits (all ones,
  // 32,767, reserved). A p2c chain through all of them bounds route
  // distances at 2 x 16,383 + 1 = 32,767: no fit. One AS off the chain
  // gives 2 x 16,382 + 1 = 32,765: fits, and every lane must hold the
  // chain's closed-form routes.
  EngineKnobGuard guard;
  constexpr uint32_t kAses = 16384;
  auto chain = [](uint32_t chained) {
    AsGraph graph;
    for (uint32_t i = 0; i < kAses; ++i) graph.add_as(Asn(100 + i));
    for (uint32_t i = 1; i < chained; ++i) {
      graph.add_provider_customer(Asn(100 + i - 1), Asn(100 + i));
    }
    return graph;
  };
  sim::set_batch_width(8);
  const std::vector<PropagationRequest> requests{
      PropagationRequest{Asn(100), AnnouncementClass{}},
      PropagationRequest{Asn(100 + kAses / 2), AnnouncementClass{}},
      PropagationRequest{Asn(100 + kAses - 2), AnnouncementClass{}},
      PropagationRequest{Asn(100 + kAses - 1), AnnouncementClass{}},
  };

  PropagationSim too_deep(chain(kAses));
  EXPECT_THROW((void)too_deep.propagate_batch(requests), std::length_error);
  EXPECT_THROW((void)too_deep.propagate_cached(requests), std::length_error);
  EXPECT_THROW((void)too_deep.propagate(requests[0].origin, requests[0].cls),
               std::length_error);

  // Dense id i is ASN 100 + i, and chain position i. From an origin at
  // position o, ASes above it hold customer routes from the AS below
  // them, ASes below it provider routes from the AS above them; the AS
  // off the chain is reached only when it is the origin itself.
  auto closed_form = [](uint32_t o) {
    PropagationResult want;
    want.words.assign(kAses, PropagationResult::pack(
                                 sim::RouteSource::kNone,
                                 PropagationResult::kNoRoute));
    want.words[o] = PropagationResult::pack(sim::RouteSource::kOrigin,
                                            PropagationResult::kNoRoute);
    if (o == kAses - 1) return want;
    for (uint32_t i = 0; i < kAses - 1; ++i) {
      if (i < o) {
        want.words[i] = PropagationResult::pack(
            sim::RouteSource::kCustomer, static_cast<int32_t>(i + 1));
      } else if (i > o) {
        want.words[i] = PropagationResult::pack(
            sim::RouteSource::kProvider, static_cast<int32_t>(i - 1));
      }
    }
    return want;
  };
  PropagationSim fits(chain(kAses - 1));
  std::vector<PropagationResult> lanes = fits.propagate_batch(requests);
  ASSERT_EQ(lanes.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    expect_result_eq(lanes[r], closed_form(requests[r].origin.value() - 100),
                     r, 8);
  }
  // The chain's far end is reached at distance 16,382.
  EXPECT_EQ(lanes[0].distance(static_cast<int32_t>(kAses - 2)), kAses - 2);
}

// ---------------------------------------------------------------------------
// Arena path extraction.

TEST(PropagationBatchPaths, ExtractMatchesPathFrom) {
  util::Rng rng(60061);
  const size_t n = 32;
  AsGraph graph = random_graph(rng, n);
  PropagationSim sim(graph);
  oracle::apply_policies(sim, oracle::random_policies(rng, graph));

  // Vantages: every AS (origin included), plus an ASN the graph has
  // never heard of.
  std::vector<Asn> vantages = sim.indexer().asns();
  vantages.push_back(Asn(77777777));

  sim::PathArena arena;  // reused across results: epoch reset under test
  for (int round = 0; round < 6; ++round) {
    Asn origin(100 + static_cast<uint32_t>(rng.uniform(n)));
    AnnouncementClass cls = round == 0 ? AnnouncementClass{}
                                       : random_class(rng);
    PropagationResult result = sim.propagate(origin, cls);

    sim::PathArenaStats before = sim::path_arena_stats();
    std::vector<sim::PathView> views =
        sim.extract_paths(result, vantages, arena);
    sim::PathArenaStats after = sim::path_arena_stats();
    ASSERT_EQ(views.size(), vantages.size());

    uint64_t expected_paths = 0;
    for (size_t k = 0; k < vantages.size(); ++k) {
      bgp::AsPath want = sim.path_from(result, vantages[k]);
      ASSERT_EQ(views[k].size(), want.hops().size())
          << "round=" << round << " vantage=" << vantages[k].to_string();
      for (size_t h = 0; h < want.hops().size(); ++h) {
        EXPECT_EQ(views[k][h], want.hops()[h]);
      }
      // to_path round-trips into the owned representation.
      EXPECT_EQ(views[k].to_path().hops(), want.hops());
      if (!want.empty()) ++expected_paths;
    }
    EXPECT_EQ(after.paths - before.paths, expected_paths);
    // With every AS as a vantage, interior chain nodes are themselves
    // vantages: all but the first hop of later walks come off the memo.
    if (expected_paths > 1) {
      EXPECT_GT(after.shared_hops, before.shared_hops);
    }
  }
}

TEST(PropagationBatchPaths, BrokenChainYieldsEmptyView) {
  util::Rng rng(808);
  AsGraph graph = random_graph(rng, 12);
  PropagationSim sim(graph);
  Asn origin(100);
  PropagationResult result = sim.propagate(origin, AnnouncementClass{});

  // Corrupt one routed, non-origin AS into a self-loop: path_from
  // reports kBrokenChain, and the arena walk must agree (empty view)
  // for every vantage whose chain crosses it.
  int32_t victim = -1;
  for (int32_t i = 0; i < static_cast<int32_t>(result.size()); ++i) {
    if (result.reached(i) && result.source(i) != sim::RouteSource::kOrigin) {
      victim = i;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  result.words[static_cast<size_t>(victim)] =
      PropagationResult::pack(result.source(victim), victim);

  std::vector<Asn> vantages = sim.indexer().asns();
  sim::PathArena arena;
  std::vector<sim::PathView> views = sim.extract_paths(result, vantages,
                                                       arena);
  for (size_t k = 0; k < vantages.size(); ++k) {
    sim::PathStatus status = sim::PathStatus::kOk;
    bgp::AsPath want = sim.path_from(result, vantages[k], &status);
    EXPECT_EQ(views[k].empty(), want.empty())
        << vantages[k].to_string() << " status=" << static_cast<int>(status);
    if (!want.empty()) {
      ASSERT_EQ(views[k].size(), want.hops().size());
      for (size_t h = 0; h < want.hops().size(); ++h) {
        EXPECT_EQ(views[k][h], want.hops()[h]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline byte equality vs one-lane sweeps.

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
  writer.write_rib(rib, "batch");
  return out.str();
}

std::string hegemony_bytes(const ihr::IhrSnapshot& snapshot) {
  std::ostringstream po, transit;
  ihr::write_prefix_origin_csv(po, snapshot.prefix_origins);
  ihr::write_transit_csv(transit, snapshot.transits);
  return po.str() + "\n---\n" + transit.str();
}

/// Force every group's propagation through a one-lane sweep:
/// propagate_cached(origin, cls) misses compute one request at a time, so
/// after this warm-up the batched front end resolves every request as a
/// memo hit and no multi-lane sweep runs.
void prewarm_one_lane(const PropagationSim& sim,
                      const std::vector<sim::Announcement>& as) {
  for (const auto& group : sim::group_announcements(as)) {
    (void)sim.propagate_cached(group.origin, group.cls);
  }
}

TEST(PropagationBatchGolden, PipelineBytesMatchOneLaneSweepsAcrossMatrix) {
  EngineKnobGuard guard;
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  const auto announcements = classified_announcements(scenario);
  ASSERT_FALSE(announcements.empty());

  auto pipeline_bytes = [&](bool one_lane) {
    PropagationSim simulator = scenario.make_sim();
    if (one_lane) prewarm_one_lane(simulator, announcements);
    sim::RouteCollector collector(simulator, scenario.vantage_points);
    std::string rib = rib_bytes(collector.collect(announcements));
    ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
    std::string heg = hegemony_bytes(builder.build(
        scenario.announcements(), scenario.vrps, scenario.irr));
    return std::pair<std::string, std::string>(std::move(rib),
                                               std::move(heg));
  };

  util::set_thread_count(1);
  util::set_grain(0);
  sim::set_batch_width(0);
  const auto [golden_rib, golden_heg] = pipeline_bytes(true);
  ASSERT_GT(golden_rib.size(), 100u);
  ASSERT_GT(golden_heg.size(), 100u);

  // An explicit one-lane collector reference: per-group one-lane
  // propagation + per-peer path_from, merged with the same sharded
  // merge. Pins the golden itself to an unbatched collector build.
  {
    PropagationSim simulator = scenario.make_sim();
    bgp::Rib rib;
    for (Asn peer : scenario.vantage_points) rib.add_peer(peer);
    const auto groups = sim::group_announcements(announcements);
    std::vector<std::vector<bgp::RibEntry>> entries(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      sim::PropagationResultPtr result =
          simulator.propagate_cached(groups[g].origin, groups[g].cls);
      for (size_t i = 0; i < scenario.vantage_points.size(); ++i) {
        bgp::AsPath path =
            simulator.path_from(*result, scenario.vantage_points[i]);
        if (!path.empty()) {
          entries[g].push_back(
              bgp::RibEntry{static_cast<uint32_t>(i), std::move(path)});
        }
      }
    }
    rib.adopt_rows(sim::merge_group_entries(groups, std::move(entries)));
    ASSERT_EQ(rib_bytes(rib), golden_rib);
  }

  for (size_t width : {size_t{1}, size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t grain : {size_t{1}, size_t{64}}) {
        sim::set_batch_width(width);
        util::set_thread_count(threads);
        util::set_grain(grain);
        const auto [rib, heg] = pipeline_bytes(false);
        EXPECT_EQ(rib, golden_rib) << "width=" << width
                                   << " threads=" << threads
                                   << " grain=" << grain;
        EXPECT_EQ(heg, golden_heg) << "width=" << width
                                   << " threads=" << threads
                                   << " grain=" << grain;
      }
    }
  }
}

TEST(PropagationBatchGolden, ChunkedCollectMatchesOneBatch) {
  // collect() resolves groups in chunks of whole sweeps (narrow widths
  // make many small chunks): the RIB bytes must match with the cache on
  // and off, and with the cache on the hit/miss counts must equal one
  // batched resolve over every group.
  EngineKnobGuard guard;
  const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  const auto announcements = classified_announcements(scenario);
  const auto groups = sim::group_announcements(announcements);
  std::vector<sim::PropagationRequest> requests;
  for (const auto& group : groups) {
    requests.push_back(sim::PropagationRequest{group.origin, group.cls});
  }
  util::set_thread_count(1);
  for (size_t width : {size_t{1}, size_t{7}}) {
    sim::set_batch_width(width);
    ASSERT_GT(groups.size(), 4 * width) << "one chunk would hold every group";
    PropagationSim cached = scenario.make_sim();
    const std::string on = rib_bytes(
        sim::RouteCollector(cached, scenario.vantage_points)
            .collect(announcements));
    PropagationSim uncached = scenario.make_sim();
    uncached.set_cache_enabled(false);
    const std::string off = rib_bytes(
        sim::RouteCollector(uncached, scenario.vantage_points)
            .collect(announcements));
    EXPECT_EQ(on, off) << "width=" << width;

    PropagationSim one_batch = scenario.make_sim();
    (void)one_batch.propagate_cached(requests);
    EXPECT_EQ(cached.cache_stats().hits, one_batch.cache_stats().hits)
        << "width=" << width;
    EXPECT_EQ(cached.cache_stats().misses, one_batch.cache_stats().misses)
        << "width=" << width;
    EXPECT_GT(cached.cache_stats().hits, 0u);
  }
}

}  // namespace
}  // namespace manrs
