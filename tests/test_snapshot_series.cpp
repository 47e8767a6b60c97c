// Temporal snapshot engine tests.
//
// Two layers of defense, mirroring the propagation oracle split:
//
//   * DeltaOracle: the evolution itself. delta_for_day(d) must be a pure
//     function of (base, config, day) -- computable for any day in
//     isolation, in any order -- and folding the per-day deltas must
//     land on exactly the state the *_at(day) accessors materialize
//     directly from the schedules.
//   * SnapshotSeries: the incremental engine. Every day's outputs --
//     all aggregates and all three full-dataset digests -- must be
//     byte-identical to a cold rebuild of that day, across a threads x
//     grain matrix, and the step-wise begin_day/apply/recompute API
//     must match the advance() convenience path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "topogen/evolution.h"
#include "topogen/scenario.h"
#include "util/det_hash.h"
#include "util/parallel.h"

namespace manrs {
namespace {

using benchx::DayEngineStats;
using benchx::DayOutputs;
using benchx::SnapshotSeries;
using topogen::EcosystemDelta;
using topogen::EcosystemEvolution;
using topogen::EvolutionConfig;
using topogen::Scenario;

const Scenario& tiny_scenario() {
  static const Scenario* scenario =
      new Scenario(topogen::build_scenario(topogen::ScenarioConfig::tiny()));
  return *scenario;
}

/// Order-sensitive digest of everything in a delta, so two deltas can be
/// compared for exact equality without an operator== on every payload
/// type.
uint64_t delta_digest(const EcosystemDelta& delta) {
  uint64_t h = util::kFnv1aOffset;
  auto fold_str = [&h](const std::string& s) {
    for (char c : s) h = util::fnv1a_byte(h, static_cast<uint8_t>(c));
    h = util::fnv1a_byte(h, 0);
  };
  h = util::fnv1a_u64(h, static_cast<uint64_t>(delta.day));
  for (const auto& po : delta.announce) {
    fold_str(po.prefix.to_string());
    h = util::fnv1a_u64(h, po.origin.value());
  }
  for (const auto& po : delta.withdraw) {
    fold_str(po.prefix.to_string());
    h = util::fnv1a_u64(h, po.origin.value());
  }
  for (const auto& vrp : delta.roa_add) {
    fold_str(vrp.prefix.to_string());
    h = util::fnv1a_u64(h, vrp.max_length);
    h = util::fnv1a_u64(h, vrp.asn.value());
  }
  for (const auto& vrp : delta.roa_remove) {
    fold_str(vrp.prefix.to_string());
    h = util::fnv1a_u64(h, vrp.asn.value());
  }
  for (const auto& edit : delta.irr_add) {
    fold_str(edit.db);
    fold_str(edit.route.prefix.to_string());
    h = util::fnv1a_u64(h, edit.route.origin.value());
    fold_str(edit.route.source);
  }
  for (const auto& edit : delta.irr_remove) {
    fold_str(edit.db);
    fold_str(edit.route.prefix.to_string());
    h = util::fnv1a_u64(h, edit.route.origin.value());
  }
  for (const auto& m : delta.members) {
    h = util::fnv1a_u64(h, m.asn.value());
    fold_str(m.org_id);
    h = util::fnv1a_u64(h, static_cast<uint64_t>(m.join));
    h = util::fnv1a_u64(h, m.policy.customer_strictness);
    h = util::fnv1a_u64(h, static_cast<uint64_t>(m.policy.rov));
    h = util::fnv1a_u64(h, m.policy.peer_strictness);
  }
  for (const auto& e : delta.edges) {
    h = util::fnv1a_u64(h, e.a.value());
    h = util::fnv1a_u64(h, e.b.value());
    h = util::fnv1a_u64(h, static_cast<uint64_t>(e.rel));
  }
  return h;
}

std::vector<bgp::PrefixOrigin> sorted(std::vector<bgp::PrefixOrigin> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// DeltaOracle: the evolution's determinism and fold/materialize agreement.

TEST(DeltaOracle, DayDeltasArePureFunctions) {
  const Scenario& base = tiny_scenario();
  EcosystemEvolution forward(base);
  EcosystemEvolution backward(base);
  // Same day from two independent instances, queried in opposite orders
  // (any cross-day state leakage shows up as a digest mismatch).
  std::vector<uint64_t> fwd, bwd;
  for (int d = 1; d <= 21; ++d) fwd.push_back(delta_digest(forward.delta_for_day(d)));
  for (int d = 21; d >= 1; --d) bwd.push_back(delta_digest(backward.delta_for_day(d)));
  for (int d = 1; d <= 21; ++d) {
    EXPECT_EQ(fwd[static_cast<size_t>(d - 1)],
              bwd[static_cast<size_t>(21 - d)])
        << "day " << d;
  }
}

TEST(DeltaOracle, AnnouncementFoldMatchesMaterialize) {
  const Scenario& base = tiny_scenario();
  EcosystemEvolution evo(base);
  // Fold day deltas into a multiset-by-sorted-vector and compare against
  // the directly materialized announcements_at(k) every day.
  std::vector<bgp::PrefixOrigin> folded = evo.announcements_at(0);
  for (int d = 1; d <= 21; ++d) {
    const EcosystemDelta delta = evo.delta_for_day(d);
    for (const auto& po : delta.withdraw) {
      auto it = std::find(folded.begin(), folded.end(), po);
      ASSERT_NE(it, folded.end())
          << "day " << d << " withdraws absent " << po.prefix.to_string();
      folded.erase(it);
    }
    folded.insert(folded.end(), delta.announce.begin(), delta.announce.end());
    EXPECT_EQ(sorted(folded), sorted(evo.announcements_at(d))) << "day " << d;
  }
}

TEST(DeltaOracle, MembershipArrivesInWeeklyBatches) {
  const Scenario& base = tiny_scenario();
  EcosystemEvolution evo(base);
  bool any = false;
  for (int d = 1; d <= 28; ++d) {
    const EcosystemDelta delta = evo.delta_for_day(d);
    if (d % 7 != 1) {
      EXPECT_TRUE(delta.members.empty()) << "day " << d;
    } else if (!delta.members.empty()) {
      any = true;
    }
  }
  EXPECT_TRUE(any) << "no membership churn in four weeks";
  // Registry sizes move only at weekly boundaries.
  size_t prev = evo.registry_at(0).participant_count();
  for (int d = 1; d <= 28; ++d) {
    size_t now = evo.registry_at(d).participant_count();
    if (d % 7 != 1) {
      EXPECT_EQ(now, prev) << "day " << d;
    }
    prev = now;
  }
}

TEST(DeltaOracle, Day0AccessorsMatchBaseSnapshot) {
  const Scenario& base = tiny_scenario();
  EcosystemEvolution evo(base);
  EXPECT_EQ(sorted(evo.announcements_at(0)), sorted(base.announcements()));
  EXPECT_EQ(evo.registry_at(0).participant_count(),
            base.manrs.participant_count());
  EXPECT_EQ(evo.graph_at(0).as_count(), base.graph.as_count());
  EXPECT_TRUE(evo.policy_changes_through(0).empty());
}

// ---------------------------------------------------------------------------
// SnapshotSeries: incremental-vs-cold byte identity.

void expect_incremental_matches_cold(size_t threads, size_t grain, int days) {
  util::set_thread_count(threads);
  util::set_grain(grain);
  SnapshotSeries series(tiny_scenario());
  std::vector<DayOutputs> incremental;
  for (int d = 1; d <= days; ++d) incremental.push_back(series.advance());
  for (int d = 1; d <= days; ++d) {
    const DayOutputs cold = series.cold_rebuild(d);
    EXPECT_EQ(cold, incremental[static_cast<size_t>(d - 1)])
        << "day " << d << " at threads=" << threads << " grain=" << grain;
  }
  util::set_thread_count(0);
  util::set_grain(0);
}

TEST(SnapshotSeries, IncrementalMatchesColdRebuildSerial) {
  expect_incremental_matches_cold(/*threads=*/1, /*grain=*/0, /*days=*/10);
}

TEST(SnapshotSeries, IncrementalMatchesColdRebuildParallel) {
  expect_incremental_matches_cold(/*threads=*/4, /*grain=*/0, /*days=*/10);
}

TEST(SnapshotSeries, IncrementalMatchesColdRebuildFineGrain) {
  expect_incremental_matches_cold(/*threads=*/4, /*grain=*/16, /*days=*/6);
}

// Recorded outputs of days 0-3 at tiny scale. The oracle above compares
// two runs of the same day computation, so a fault they share passes it;
// these literals do not move with the code.
//   {day, participants, member_ases, rsat_manrs, rsat_non_manrs,
//    preference_valid_mean, preference_other_mean, announcements,
//    conformant, unconformant, transit_records,
//    prefix_origin_digest, transit_digest, preference_digest}
const DayOutputs kPinnedDays[] = {
    {0, 55, 71, 0x1.3952602120af2p+6, 0x1.9740be6748a6cp+4,
     0x1.1f0f51490a13dp-4, 0x1.118c017a4637p-4, 2709, 2515, 140, 5445,
     0x655cd1457c62c064ull, 0x2c5862f7f02f4ab2ull, 0xdcf543f566f28b1full},
    {1, 58, 74, 0x1.38697651e004cp+6, 0x1.94a9747f7867ap+4,
     0x1.21a26202321c1p-4, 0x1.11a37c1faebf9p-4, 2711, 2515, 139, 5453,
     0x046985b1195e2112ull, 0x9ff4057d6b5229fcull, 0xf0fe7861340e22b4ull},
    {2, 58, 74, 0x1.3864487e1042bp+6, 0x1.94770c4e25ac8p+4,
     0x1.259330efa40dbp-4, 0x1.0f871ae5dcde1p-4, 2712, 2513, 140, 5456,
     0x6562e05dd156db8cull, 0xd294dc7639b42584ull, 0x023fadb3e3494cd3ull},
    {3, 58, 74, 0x1.38659401b6f33p+6, 0x1.9495f91e92e6fp+4,
     0x1.2657c5ca27294p-4, 0x1.0b2ef955fbccfp-4, 2716, 2513, 140, 5465,
     0x08a37bef74cb4177ull, 0x2b40b82b9bc108f4ull, 0x5175581273cf99c5ull},
};

TEST(SnapshotSeries, PinnedDaysMatchRecordedOutputs) {
  SnapshotSeries series(tiny_scenario());
  EXPECT_EQ(series.recompute(), kPinnedDays[0]) << "day 0";
  for (int d = 1; d <= 3; ++d) {
    EXPECT_EQ(series.advance(), kPinnedDays[d]) << "day " << d;
  }
  for (int d = 0; d <= 3; ++d) {
    EXPECT_EQ(series.cold_rebuild(d), kPinnedDays[d]) << "cold day " << d;
  }
}

TEST(SnapshotSeries, StepwiseApiMatchesAdvance) {
  const Scenario& base = tiny_scenario();
  SnapshotSeries one_shot(base);
  SnapshotSeries stepwise(base);
  for (int d = 1; d <= 8; ++d) {
    const DayOutputs& a = one_shot.advance();
    const EcosystemDelta delta = stepwise.begin_day();
    EXPECT_EQ(delta.day, d);
    stepwise.apply(delta);
    const DayOutputs& b = stepwise.recompute();
    EXPECT_EQ(a, b) << "day " << d;
  }
}

TEST(SnapshotSeries, TwoSweepsAreBitwiseIdentical) {
  const Scenario& base = tiny_scenario();
  SnapshotSeries first(base);
  SnapshotSeries second(base);
  for (int d = 1; d <= 8; ++d) {
    EXPECT_EQ(first.advance(), second.advance()) << "day " << d;
  }
}

TEST(SnapshotSeries, EngineActuallySkipsWork) {
  const Scenario& base = tiny_scenario();
  SnapshotSeries series(base);
  series.advance();  // day 1 pays the initial full propagation
  const DayEngineStats day1 = series.last_stats();
  EXPECT_GT(day1.cache_misses, 0u);
  uint64_t hits = 0, misses = 0;
  size_t reclassified = 0;
  for (int d = 2; d <= 6; ++d) {
    const DayOutputs& out = series.advance();
    const DayEngineStats& st = series.last_stats();
    hits += st.cache_hits;
    misses += st.cache_misses;
    reclassified += st.reclassified;
    // Incremental work must be a small slice of the full dataset.
    EXPECT_LT(st.reclassified, out.announcements / 4) << "day " << d;
    EXPECT_GT(st.groups_reused, st.groups / 2) << "day " << d;
  }
  // Across quiet days the cache must serve the overwhelming majority.
  EXPECT_GT(hits, 10 * misses);
  EXPECT_GT(reclassified, 0u);  // ...but churn exists, or the test is vacuous
}

TEST(SnapshotSeries, QuietDayStatsStayBounded) {
  // A day whose delta is empty of announcements still recomputes valid
  // outputs (ROA/IRR churn may reclassify a handful of prefixes), and
  // invalidations never exceed the cache's entry count.
  SnapshotSeries series(tiny_scenario());
  for (int d = 1; d <= 6; ++d) {
    const DayOutputs& out = series.advance();
    const DayEngineStats& st = series.last_stats();
    EXPECT_EQ(out.day, d);
    EXPECT_EQ(st.day, d);
    EXPECT_GT(out.announcements, 0u);
    EXPECT_LE(st.cache_invalidated, st.cache_hits + st.cache_misses);
  }
}

}  // namespace
}  // namespace manrs
