// End-to-end integration tests: generate a miniature Internet, run the
// full measurement pipeline, and check the paper's qualitative findings
// hold (MANRS networks behave better) plus cross-module consistency
// (collector RIB -> MRT -> prefix2as -> conformance give coherent views).
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "astopo/prefix2as.h"
#include "core/conformance.h"
#include "core/report.h"
#include "harness.h"
#include "ihr/dataset.h"
#include "mrt/table_dump.h"
#include "simulator/collector.h"
#include "topogen/history.h"
#include "topogen/scenario.h"
#include "util/stats.h"

namespace manrs {
namespace {

using benchx::Pipeline;
using net::Asn;

const Pipeline& pipeline() {
  static const Pipeline p = Pipeline::build(topogen::ScenarioConfig::tiny());
  return p;
}

TEST(Integration, SnapshotCoversEveryAnnouncement) {
  const Pipeline& p = pipeline();
  EXPECT_EQ(p.snapshot.prefix_origins.size(),
            p.scenario.announcements().size());
}

TEST(Integration, ManrsMoreAction4ConformantThanOthers) {
  const Pipeline& p = pipeline();
  // Exclude the scripted case-study organizations: they are deliberately
  // unconformant and, at the miniature test scale, dominate the MANRS
  // population in a way they do not at paper scale.
  std::unordered_set<std::string> scripted;
  for (const auto& [label, org_id] : p.scenario.case_study_orgs) {
    scripted.insert(org_id);
  }
  size_t manrs_ok = 0, manrs_total = 0, other_ok = 0, other_total = 0;
  for (const auto& profile : p.scenario.profiles) {
    if (scripted.count(profile.org_id)) continue;
    auto it = p.origination.find(profile.asn.value());
    const core::OriginationStats* stats =
        it == p.origination.end() ? nullptr : &it->second;
    if (stats == nullptr || stats->total == 0) continue;  // quiet
    bool ok = core::check_action4(stats, core::Program::kIsp).conformant;
    if (profile.manrs) {
      ++manrs_total;
      manrs_ok += ok;
    } else {
      ++other_total;
      other_ok += ok;
    }
  }
  ASSERT_GT(manrs_total, 0u);
  ASSERT_GT(other_total, 0u);
  double manrs_rate =
      static_cast<double>(manrs_ok) / static_cast<double>(manrs_total);
  double other_rate =
      static_cast<double>(other_ok) / static_cast<double>(other_total);
  EXPECT_GT(manrs_rate, other_rate);
}

TEST(Integration, CaseStudyOrgsAreUnconformant) {
  const Pipeline& p = pipeline();
  for (const auto& [label, org_id] : p.scenario.case_study_orgs) {
    const core::Participant* participant = p.scenario.manrs.find_org(org_id);
    ASSERT_NE(participant, nullptr);
    core::MemberReport report = core::build_member_report(
        *participant, p.snapshot.prefix_origins, p.snapshot.transits);
    EXPECT_FALSE(report.action4_conformant) << label;
  }
}

TEST(Integration, CaseStudyAffinityMatchesScaledTable1) {
  const Pipeline& p = pipeline();
  double scale = p.scenario.config.case_study_scale;
  for (const auto& [label, org_id] : p.scenario.case_study_orgs) {
    if (label != "CDN3") continue;
    const core::Participant* participant = p.scenario.manrs.find_org(org_id);
    ASSERT_NE(participant, nullptr);
    core::CaseStudyRow row = core::analyze_unconformant_org(
        *participant, label, p.scenario.as2org, p.scenario.graph,
        p.snapshot.prefix_origins, p.scenario.vrps, p.scenario.irr);
    // CDN3: 5 IRR Invalid, all sibling (scaled).
    size_t expected = std::max<size_t>(1, static_cast<size_t>(5 * scale));
    EXPECT_EQ(row.irr_invalid, expected);
    EXPECT_EQ(row.irr_sibling_cp, expected);
    EXPECT_EQ(row.irr_unrelated, 0u);
    EXPECT_EQ(row.rpki_invalid, 0u);
  }
}

TEST(Integration, InvalidAnnouncementsAvoidManrsTransits) {
  // Fig 9's qualitative claim: the median MANRS preference score of RPKI
  // Invalid prefix-origins is below that of Valid ones.
  const Pipeline& p = pipeline();
  auto scores = core::compute_preference_scores(p.snapshot.transits,
                                                p.scenario.manrs);
  util::EmpiricalDistribution valid, invalid;
  for (const auto& s : scores) {
    if (s.rpki == rpki::RpkiStatus::kValid) valid.add(s.score);
    if (rpki::is_invalid(s.rpki)) invalid.add(s.score);
  }
  ASSERT_GT(valid.size(), 10u);
  ASSERT_GT(invalid.size(), 3u);
  EXPECT_LT(invalid.median(), valid.median());
}

TEST(Integration, CollectorRibSurvivesMrtRoundTrip) {
  const Pipeline& p = pipeline();
  sim::RouteCollector collector(p.simulator, p.scenario.vantage_points);
  std::vector<sim::Announcement> announcements;
  size_t limit = 500;  // keep the dump small
  for (const auto& po : p.scenario.announcements()) {
    if (announcements.size() >= limit) break;
    announcements.push_back(sim::Announcement{po.prefix, po.origin, {}});
  }
  bgp::Rib rib = collector.collect(announcements);

  std::ostringstream out;
  mrt::TableDumpWriter writer(out, 1651363200);
  writer.write_rib(rib, "integration");
  std::istringstream in(out.str());
  size_t bad = 0;
  bgp::Rib parsed = mrt::TableDumpReader::read_rib(in, &bad);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(parsed.prefix_count(), rib.prefix_count());
  EXPECT_EQ(parsed.prefix_origins(), rib.prefix_origins());

  // prefix2as derived from the decoded MRT matches the announcements fed
  // into the collector.
  astopo::Prefix2As rows = astopo::prefix2as_from_rib(parsed);
  std::unordered_set<std::string> announced;
  for (const auto& a : announcements) {
    announced.insert(bgp::PrefixOrigin{a.prefix, a.origin}.to_string());
  }
  for (const auto& row : rows) {
    EXPECT_TRUE(announced.count(row.to_string())) << row.to_string();
  }
}

TEST(Integration, SaturationManrsAboveNonManrs) {
  const Pipeline& p = pipeline();
  astopo::Prefix2As routed;
  for (const auto& po : p.scenario.announcements()) routed.push_back(po);
  auto saturation = core::compute_rpki_saturation(routed, p.scenario.vrps,
                                                  p.scenario.manrs);
  EXPECT_GT(saturation.rsat_manrs(), saturation.rsat_non_manrs());
  EXPECT_GT(saturation.rsat_manrs(), 0.0);
  EXPECT_LT(saturation.rsat_manrs(), 100.0);
}

TEST(Integration, HistoricalSaturationGrows) {
  const Pipeline& p = pipeline();
  double prev = -1.0;
  int growths = 0, years = 0;
  for (int year = 2016; year <= 2022; year += 2) {
    astopo::Prefix2As routed;
    for (const auto& po : p.scenario.announcements_in_year(year)) {
      routed.push_back(po);
    }
    auto vrps = p.scenario.vrps_in_year(year);
    auto saturation =
        core::compute_rpki_saturation(routed, vrps, p.scenario.manrs);
    double total =
        saturation.manrs_covered_space + saturation.non_manrs_covered_space;
    if (prev >= 0 && total > prev) ++growths;
    prev = total;
    ++years;
  }
  EXPECT_GE(growths, years - 2);  // essentially monotone growth
}

TEST(Integration, WeeklyConformanceMostlyStable) {
  // §8.5: most ASes keep their conformance status across the 12 weeks.
  const Pipeline& p = pipeline();
  topogen::WeeklySeries series = topogen::build_weekly_series(p.scenario, 6);
  ihr::IhrSnapshotBuilder builder(p.simulator, p.scenario.vantage_points);

  std::unordered_map<uint32_t, std::vector<bool>> verdicts;
  for (const auto& table : series.announcements) {
    auto snapshot = builder.build(table, p.scenario.vrps, p.scenario.irr);
    auto origination = core::compute_origination_stats(snapshot.prefix_origins);
    for (Asn asn : p.scenario.manrs.member_ases()) {
      auto it = origination.find(asn.value());
      auto verdict = core::check_action4(
          it == origination.end() ? nullptr : &it->second,
          core::Program::kIsp);
      verdicts[asn.value()].push_back(verdict.conformant);
    }
  }
  size_t stable = 0, fluctuating = 0;
  // lint-ok: commutative counter fold, order-independent
  for (const auto& [asn, history] : verdicts) {
    bool all_same = std::adjacent_find(history.begin(), history.end(),
                                       std::not_equal_to<>()) == history.end();
    all_same ? ++stable : ++fluctuating;
  }
  EXPECT_GT(stable, fluctuating * 5);  // overwhelmingly stable
  EXPECT_GT(fluctuating, 0u);          // but the scripted leaks do show up
}

TEST(Integration, MemberReportsCoverAllParticipants) {
  const Pipeline& p = pipeline();
  size_t reports = 0;
  for (const auto& participant : p.scenario.manrs.participants()) {
    core::MemberReport report = core::build_member_report(
        participant, p.snapshot.prefix_origins, p.snapshot.transits);
    EXPECT_EQ(report.ases.size(), participant.registered_ases.size());
    ++reports;
  }
  EXPECT_EQ(reports, p.scenario.manrs.participant_count());
}

}  // namespace
}  // namespace manrs
