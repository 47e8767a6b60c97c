// Reproduces Finding 8.7: conformance stability across 12 weekly
// snapshots (Feb-May 2022), including the CDN1 prefix churn narrative of
// §8.5.
#include <cstdio>
#include <map>
#include <vector>

#include "core/monitoring.h"
#include "harness.h"
#include "topogen/history.h"

using namespace manrs;

int main() {
  benchx::print_title("f87_stability",
                      "Finding 8.7 / §8.5 (conformance stability)");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  topogen::WeeklySeries series = topogen::build_weekly_series(scenario, 12);

  // Per week, per MANRS AS: Action 4 verdict.
  std::map<uint32_t, std::vector<bool>> verdicts;
  for (size_t w = 0; w < series.announcements.size(); ++w) {
    auto records =
        ihr::classify(series.announcements[w], scenario.vrps, scenario.irr);
    auto origination = core::compute_origination_stats(records);
    for (const auto& participant : scenario.manrs.participants()) {
      for (net::Asn asn : participant.registered_ases) {
        auto it = origination.find(asn.value());
        auto verdict = core::check_action4(
            it == origination.end() ? nullptr : &it->second,
            participant.program);
        verdicts[asn.value()].push_back(verdict.conformant);
      }
    }
  }

  size_t always_conformant = 0, always_unconformant = 0, fluctuating = 0;
  size_t flip_floppers = 0;  // more than one unconformant episode
  std::map<std::string, size_t> fluctuating_orgs;
  for (const auto& [asn_value, history] : verdicts) {
    size_t bad_weeks = 0, episodes = 0;
    bool prev_bad = false;
    for (bool ok : history) {
      bool bad = !ok;
      bad_weeks += bad;
      if (bad && !prev_bad) ++episodes;
      prev_bad = bad;
    }
    if (bad_weeks == 0) {
      ++always_conformant;
    } else if (bad_weeks == history.size()) {
      ++always_unconformant;
    } else {
      ++fluctuating;
      if (episodes > 1) ++flip_floppers;
      if (const core::Participant* p =
              scenario.manrs.participant_of(net::Asn(asn_value))) {
        ++fluctuating_orgs[p->org_id];
      }
    }
  }

  benchx::print_section("weekly Action-4 stability over 12 snapshots");
  benchx::print_vs_paper("consistently conformant MANRS ASes",
                         std::to_string(always_conformant),
                         "803/849 ISPs + 18/21 CDNs (combined view)");
  benchx::print_vs_paper("consistently unconformant",
                         std::to_string(always_unconformant),
                         "35 ISP ASes + 3 CDNs");
  benchx::print_vs_paper("unconformant in only some weeks",
                         std::to_string(fluctuating),
                         "11 ASes (10 organizations)");
  benchx::print_vs_paper("ASes with >1 unconformance episode",
                         std::to_string(flip_floppers), "1 (flip-flopper)");
  benchx::print_vs_paper("organizations among the fluctuating ASes",
                         std::to_string(fluctuating_orgs.size()), "10");

  benchx::print_section("CDN1 prefix churn (§8.5)");
  benchx::print_vs_paper("CDN1 prefixes stopped during the window",
                         std::to_string(series.cdn1_stopped), "80");
  benchx::print_vs_paper("CDN1 new prefixes during the window",
                         std::to_string(series.cdn1_new), "141");

  // The actionable delta view (§10: operators asked the reports for more
  // actionable information): first week vs last week.
  benchx::print_section("window delta (first week -> last week)");
  auto first =
      ihr::classify(series.announcements.front(), scenario.vrps, scenario.irr);
  auto last =
      ihr::classify(series.announcements.back(), scenario.vrps, scenario.irr);
  core::ConformanceDelta delta = core::diff_conformance(first, last);
  size_t became = 0, resolved = 0, appeared = 0, withdrawn = 0;
  for (const auto& change : delta.prefix_changes) {
    switch (change.transition) {
      case core::PrefixTransition::kBecameUnconformant:
        ++became;
        break;
      case core::PrefixTransition::kResolved:
        ++resolved;
        break;
      case core::PrefixTransition::kNewUnconformant:
        ++appeared;
        break;
      case core::PrefixTransition::kWithdrawnUnconformant:
        ++withdrawn;
        break;
    }
  }
  std::printf("prefix-origins: %zu became unconformant, %zu resolved, %zu "
              "appeared unconformant, %zu withdrawn while unconformant\n",
              became, resolved, appeared, withdrawn);
  std::printf("AS verdict flips: %zu (stable: %zu conformant, %zu "
              "unconformant)\n",
              delta.as_transitions.size(), delta.stable_conformant_ases,
              delta.stable_unconformant_ases);
  return 0;
}
