// Reproduces Findings 8.3/8.4: AS-level conformance to MANRS Action 4
// (route registration), per program, with the paper's trivially-conformant
// handling for ASes that originate nothing.
#include <cstdio>
#include <map>

#include "harness.h"

using namespace manrs;

int main() {
  benchx::print_title("f83_action4_conformance",
                      "Findings 8.3/8.4 (Action 4 conformance)");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);
  auto origination = core::compute_origination_stats(records);

  struct ProgramStats {
    size_t total = 0;
    size_t conformant = 0;
    size_t trivially = 0;
    std::map<std::string, size_t> unconformant_orgs;  // org -> AS count
  };
  std::map<core::Program, ProgramStats> programs;

  for (const auto& participant : scenario.manrs.participants()) {
    for (net::Asn asn : participant.registered_ases) {
      auto it = origination.find(asn.value());
      const core::OriginationStats* stats =
          it == origination.end() ? nullptr : &it->second;
      auto verdict = core::check_action4(stats, participant.program);
      ProgramStats& p = programs[participant.program];
      ++p.total;
      if (verdict.conformant) {
        ++p.conformant;
        if (verdict.trivially) ++p.trivially;
      } else {
        ++p.unconformant_orgs[participant.org_id];
      }
    }
  }

  benchx::print_section("per-program conformance");
  for (const auto& [program, stats] : programs) {
    char measured[128];
    std::snprintf(measured, sizeof(measured), "%zu/%zu (%.0f%%)",
                  stats.conformant, stats.total,
                  stats.total ? 100.0 * stats.conformant / stats.total : 0.0);
    const char* paper = program == core::Program::kCdn
                            ? "18/21 (86%), 1 trivially"
                            : "810/849 (95%), 95 trivially";
    benchx::print_vs_paper(
        std::string("Action 4, ") + std::string(core::to_string(program)) +
            " program",
        measured, paper);
    std::printf("  trivially conformant (no originated prefixes): %zu\n",
                stats.trivially);
  }

  benchx::print_section("unconformant organization structure (ISP)");
  const auto& isp = programs[core::Program::kIsp];
  std::printf("unconformant ISP ASes belong to %zu organizations\n",
              isp.unconformant_orgs.size());
  // Histogram of ASes per unconformant org (the paper: one org with 24
  // ASes, one with 2, thirteen with 1).
  std::map<size_t, size_t> histogram;
  size_t max_org = 0;
  for (const auto& [org, count] : isp.unconformant_orgs) {
    ++histogram[count];
    max_org = std::max(max_org, count);
  }
  for (const auto& [ases, orgs] : histogram) {
    std::printf("  %zu org(s) with %zu unconformant AS(es)\n", orgs, ases);
  }
  benchx::print_vs_paper("largest unconformant org (ISP1)",
                         std::to_string(max_org) + " ASes", "24 ASes");
  benchx::print_vs_paper("unconformant ISP orgs total",
                         std::to_string(isp.unconformant_orgs.size()),
                         "15 organizations");
  return 0;
}
