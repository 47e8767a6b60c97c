// Ablation: the Action 4 conformance threshold.
//
// The ISP program requires >= 90% IRR/RPKI-valid originations and the CDN
// program 100%. This bench sweeps the threshold from 50% to 100% and
// reports the fraction of MANRS ASes that would be conformant at each
// level -- showing where the paper's 90/100 choices sit on the curve.
#include <cstdio>

#include "harness.h"

using namespace manrs;

int main() {
  benchx::print_title("ablate_thresholds",
                      "ablation: Action 4 threshold sweep");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);
  auto origination = core::compute_origination_stats(records);

  benchx::print_section("conformant fraction vs threshold");
  std::printf("%-11s %12s %12s\n", "threshold", "ISP ASes", "CDN ASes");
  for (int threshold = 50; threshold <= 100; threshold += 5) {
    size_t isp_ok = 0, isp_total = 0, cdn_ok = 0, cdn_total = 0;
    for (const auto& participant : scenario.manrs.participants()) {
      for (net::Asn asn : participant.registered_ases) {
        auto it = origination.find(asn.value());
        bool ok;
        if (it == origination.end() || it->second.total == 0) {
          ok = true;  // trivially conformant
        } else if (threshold >= 100) {
          ok = it->second.conformant == it->second.total;
        } else {
          ok = it->second.og_conformant() >= threshold;
        }
        if (participant.program == core::Program::kCdn) {
          ++cdn_total;
          cdn_ok += ok;
        } else {
          ++isp_total;
          isp_ok += ok;
        }
      }
    }
    std::printf("%9d%% %11.1f%% %11.1f%%%s\n", threshold,
                isp_total ? 100.0 * isp_ok / isp_total : 0.0,
                cdn_total ? 100.0 * cdn_ok / cdn_total : 0.0,
                threshold == 90 ? "   <- ISP requirement"
                                : (threshold == 100 ? "   <- CDN requirement"
                                                    : ""));
  }
  std::printf(
      "\nInterpretation: conformance is threshold-insensitive below ~90%%\n"
      "because per-AS validity is strongly bimodal (Fig 5a); the CDN\n"
      "100%% bar is the only cliff.\n");
  return 0;
}
