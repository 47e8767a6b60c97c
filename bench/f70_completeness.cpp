// Reproduces Finding 7.0: MANRS registration completeness -- how much of
// each member organization's AS footprint is registered, and whether its
// address space is announced through registered ASes.
#include <cstdio>

#include "core/report.h"
#include "harness.h"

using namespace manrs;

int main() {
  benchx::print_title("f70_completeness",
                      "Finding 7.0 (registration completeness)");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);

  core::CompletenessStats stats = core::compute_registration_completeness(
      scenario.manrs, scenario.as2org, records);

  benchx::print_section("organization-level completeness");
  benchx::print_vs_paper(
      "orgs with all their ASes registered",
      std::to_string(stats.orgs_all_ases_registered) + " (" +
          util::percent(stats.pct_all_ases()) + ")",
      "463 (70%)");
  benchx::print_vs_paper(
      "orgs announcing all space via registered ASes",
      std::to_string(stats.orgs_all_space_via_registered) + " (" +
          util::percent(stats.pct_all_space()) + ")",
      "543 (82%)");
  benchx::print_vs_paper(
      "orgs announcing some space from non-MANRS ASes",
      std::to_string(stats.orgs_some_space_unregistered), "117");
  benchx::print_vs_paper(
      "... of which only announce from non-MANRS ASes",
      std::to_string(stats.orgs_only_unregistered_space), "8");
  benchx::print_vs_paper(
      "partial orgs whose unregistered ASes are quiescent",
      std::to_string(stats.orgs_quiescent_unregistered), "80");
  std::printf("\ntotal MANRS organizations: %zu\n", stats.total_orgs);
  return 0;
}
