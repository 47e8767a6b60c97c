// Reproduces Table 1: the six case-study organizations' non-conformant
// prefix-origins, broken down by the relationship between the BGP origin
// and the registered origin (Sibling/C-P vs Unrelated).
#include <cstdio>

#include "core/report.h"
#include "harness.h"

using namespace manrs;

int main() {
  benchx::print_title("table1_casestudies",
                      "Table 1 (case-study non-conformant prefix origins)");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);

  benchx::print_section("Table 1 (measured)");
  std::printf("%-6s %12s %12s %10s %14s %12s %10s %8s\n", "org",
              "RPKI-Invalid", "Sibling/C-P", "Unrelated", "IRR-Inv(RPKI-NF)",
              "Sibling/C-P", "Unrelated", "NF-both");
  for (const auto& [label, org_id] : scenario.case_study_orgs) {
    const core::Participant* participant = scenario.manrs.find_org(org_id);
    if (!participant) continue;
    core::CaseStudyRow row = core::analyze_unconformant_org(
        *participant, label, scenario.as2org, scenario.graph, records,
        scenario.vrps, scenario.irr);
    std::printf("%-6s %12zu %12zu %10zu %14zu %12zu %10zu %8zu\n",
                row.label.c_str(), row.rpki_invalid, row.rpki_sibling_cp,
                row.rpki_unrelated, row.irr_invalid, row.irr_sibling_cp,
                row.irr_unrelated, row.unregistered);
  }

  benchx::print_section("Table 1 (paper)");
  std::printf(
      "CDN1:  3 RPKI-Invalid (3 sibling)          48 IRR-Invalid (38 s/cp, 10 unrel)\n"
      "CDN2:  (1 RPKI-NotFound only)               0 IRR-Invalid\n"
      "CDN3:  0                                    5 IRR-Invalid (5 s/cp)\n"
      "ISP1:  1 RPKI-Invalid (1 unrelated)       302 IRR-Invalid (154 s/cp, 148 unrel)\n"
      "ISP2:  8 RPKI-Invalid (6 s/cp, 2 unrel)   272 IRR-Invalid (152 s/cp, 120 unrel)\n"
      "ISP3:  1 RPKI-Invalid (1 s/cp)            486 IRR-Invalid (359 s/cp, 127 unrel)\n");

  benchx::print_section("Finding 8.5 check");
  benchx::print_vs_paper(
      "majority of mismatching origins are Sibling/C-P",
      "see table", ">50% Sibling/C-P in 5 of 6 orgs");
  return 0;
}
