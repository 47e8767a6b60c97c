// Serial-vs-parallel golden equality: the determinism contract of the
// parallel measurement pipeline. For each parallelized stage --
// scenario generation, collector propagation (including the sharded
// flat-RIB merge), IHR hegemony, MRT TABLE_DUMP_V2 decode -- the output
// with MANRS_THREADS=1 (exact serial fallback) must be byte-identical
// to the output with a multi-thread pool, at every chunking grain
// (MANRS_GRAIN). Outputs are compared through their canonical
// serializations (TABLE_DUMP_V2 bytes, dataset CSVs, scenario content
// dumps), so any reordering or dropped/duplicated item fails.
// tools/check.sh additionally runs these tests under TSan and repeats
// the matrix through the environment variables.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ihr/dataset.h"
#include "mrt/table_dump.h"
#include "simulator/collector.h"
#include "topogen/scenario.h"
#include "util/parallel.h"

namespace manrs {
namespace {

using net::Asn;

constexpr size_t kParallelThreads = 4;

const topogen::Scenario& golden_scenario() {
  static const topogen::Scenario s =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  return s;
}

/// Classified simulator announcements, the collector's input (same
/// classification rule as IhrSnapshotBuilder::build).
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
  writer.write_rib(rib, "golden");
  return out.str();
}

/// Run `fn` with the global pool pinned to `threads`, restoring the
/// environment-derived default afterwards.
template <typename Fn>
auto with_threads(size_t threads, Fn&& fn) {
  util::set_thread_count(threads);
  auto result = fn();
  util::set_thread_count(0);
  return result;
}

/// The golden matrix: compute `fn` serially, then under every
/// MANRS_THREADS in {2, 4} x MANRS_GRAIN in {1, 64} combination, and
/// require byte equality with the serial result.
template <typename Fn>
void expect_thread_grain_invariant(Fn&& fn) {
  util::set_thread_count(1);
  util::set_grain(0);
  const std::string golden = fn();
  ASSERT_FALSE(golden.empty());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    for (size_t grain : {size_t{1}, size_t{64}}) {
      util::set_thread_count(threads);
      util::set_grain(grain);
      EXPECT_EQ(golden, fn())
          << "threads=" << threads << " grain=" << grain;
    }
  }
  util::set_thread_count(0);
  util::set_grain(0);
}

/// Canonical byte dump of the RNG-derived scenario content: dated
/// announcements, dated VRPs, and vantage points. Any divergence in the
/// per-AS plan streams shows up here.
std::string scenario_bytes(const topogen::Scenario& s) {
  std::ostringstream out;
  for (const auto& a : s.dated_announcements) {
    out << a.po.prefix.to_string() << ' ' << a.po.origin.value() << ' '
        << a.first_year << ' ' << a.last_year << '\n';
  }
  out << "---\n";
  for (const auto& v : s.dated_vrps) {
    out << v.vrp.prefix.to_string() << ' ' << v.vrp.max_length << ' '
        << v.vrp.asn.value() << ' ' << v.year << '\n';
  }
  out << "---\n";
  for (const auto& vp : s.vantage_points) out << vp.value() << '\n';
  return out.str();
}

TEST(ParallelGolden, CollectorRibIsByteIdentical) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  ASSERT_FALSE(announcements.empty());

  std::string serial = with_threads(
      1, [&] { return rib_bytes(collector.collect(announcements)); });
  std::string parallel = with_threads(kParallelThreads, [&] {
    return rib_bytes(collector.collect(announcements));
  });
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelGolden, HegemonySnapshotIsByteIdentical) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);

  auto snapshot_csvs = [&] {
    ihr::IhrSnapshot snapshot = builder.build(scenario.announcements(),
                                              scenario.vrps, scenario.irr);
    std::ostringstream po, transit;
    ihr::write_prefix_origin_csv(po, snapshot.prefix_origins);
    ihr::write_transit_csv(transit, snapshot.transits);
    return po.str() + "\n---\n" + transit.str();
  };
  std::string serial = with_threads(1, snapshot_csvs);
  std::string parallel = with_threads(kParallelThreads, snapshot_csvs);
  ASSERT_GT(serial.size(), 100u);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelGolden, MrtDecodeIsByteIdentical) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  std::string dump = with_threads(
      1, [&] { return rib_bytes(collector.collect(announcements)); });

  auto decode = [&] {
    std::istringstream in(dump);
    size_t bad = 0;
    bgp::Rib rib = mrt::TableDumpReader::read_rib(in, &bad);
    EXPECT_EQ(bad, 0u);
    return rib_bytes(rib);
  };
  std::string serial = with_threads(1, decode);
  std::string parallel = with_threads(kParallelThreads, decode);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Decode must also round-trip the original dump exactly.
  EXPECT_EQ(serial, dump);
}

TEST(ParallelGolden, ScenarioBytesInvariantAcrossThreadsAndGrain) {
  expect_thread_grain_invariant([] {
    return scenario_bytes(
        topogen::build_scenario(topogen::ScenarioConfig::tiny()));
  });
}

TEST(ParallelGolden, CollectorRibInvariantAcrossThreadsAndGrain) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  expect_thread_grain_invariant(
      [&] { return rib_bytes(collector.collect(announcements)); });
}

TEST(ParallelGolden, HegemonyInvariantAcrossThreadsAndGrain) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
  expect_thread_grain_invariant([&] {
    ihr::IhrSnapshot snapshot = builder.build(scenario.announcements(),
                                              scenario.vrps, scenario.irr);
    std::ostringstream po, transit;
    ihr::write_prefix_origin_csv(po, snapshot.prefix_origins);
    ihr::write_transit_csv(transit, snapshot.transits);
    return po.str() + "\n---\n" + transit.str();
  });
}

TEST(ParallelGolden, ShardedMergeMatchesStagedFinalize) {
  // merge_group_entries (the sharded bulk path) must produce exactly the
  // rows the staged insert_many + finalize path produces.
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  auto groups = sim::group_announcements(announcements);
  auto group_entries = with_threads(
      1, [&] { return collector.collect_group_entries(groups); });

  bgp::Rib staged;
  for (Asn peer : scenario.vantage_points) staged.add_peer(peer);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const auto& prefix : groups[g].prefixes) {
      staged.insert_many(prefix, group_entries[g]);
    }
  }
  staged.finalize();

  bgp::Rib sharded;
  for (Asn peer : scenario.vantage_points) sharded.add_peer(peer);
  sharded.adopt_rows(sim::merge_group_entries(groups, group_entries));

  EXPECT_EQ(rib_bytes(staged), rib_bytes(sharded));
}

TEST(ParallelGolden, MrtDecodeCorruptionHandlingMatchesSerial) {
  const topogen::Scenario& scenario = golden_scenario();
  sim::PropagationSim simulator = scenario.make_sim();
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  auto announcements = classified_announcements(scenario);
  std::string dump = with_threads(
      1, [&] { return rib_bytes(collector.collect(announcements)); });
  ASSERT_GT(dump.size(), 200u);

  // Three corruptions: a truncated tail, a flipped byte mid-stream, and
  // a corrupt body byte. Serial and parallel decodes must agree on both
  // the surviving RIB and the bad-record count.
  std::vector<std::string> corrupted;
  corrupted.push_back(dump.substr(0, dump.size() - 7));
  for (size_t victim : {dump.size() / 2, dump.size() / 3}) {
    std::string c = dump;
    c[victim] = static_cast<char>(~static_cast<unsigned char>(c[victim]));
    corrupted.push_back(std::move(c));
  }

  for (const std::string& stream : corrupted) {
    auto decode = [&] {
      std::istringstream in(stream);
      size_t bad = 0;
      bgp::Rib rib = mrt::TableDumpReader::read_rib(in, &bad);
      return std::make_pair(rib_bytes(rib), bad);
    };
    auto serial = with_threads(1, decode);
    auto parallel = with_threads(kParallelThreads, decode);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
  }
}

}  // namespace
}  // namespace manrs
