// Ablation: the paper's invalid-length-as-conformant rule (§3/§6.4).
//
// The paper counts IRR "invalid prefix length" as MANRS-conformant because
// de-aggregation for traffic engineering is routine. This bench re-runs
// the Action 4 conformance analysis with a strict rule (only RPKI Valid or
// IRR Valid counts) to show how sensitive the headline numbers are to
// that choice.
#include <cstdio>
#include <map>

#include "harness.h"

using namespace manrs;

namespace {

struct Counts {
  size_t conformant = 0;
  size_t total = 0;
};

std::map<core::Program, Counts> run(
    const topogen::Scenario& scenario,
    const std::vector<ihr::PrefixOriginRecord>& records, bool strict) {
  // Per-AS conformant-prefix counts under the chosen rule.
  std::unordered_map<uint32_t, std::pair<size_t, size_t>> per_as;
  for (const auto& r : records) {
    auto& [ok, total] = per_as[r.origin.value()];
    ++total;
    bool conformant;
    if (strict) {
      conformant = r.rpki == rpki::RpkiStatus::kValid ||
                   r.irr == irr::IrrStatus::kValid;
    } else {
      conformant = core::classify_conformance(r.rpki, r.irr) ==
                   core::ConformanceClass::kConformant;
    }
    if (conformant) ++ok;
  }

  std::map<core::Program, Counts> out;
  for (const auto& participant : scenario.manrs.participants()) {
    for (net::Asn asn : participant.registered_ases) {
      Counts& c = out[participant.program];
      ++c.total;
      auto it = per_as.find(asn.value());
      if (it == per_as.end() || it->second.second == 0) {
        ++c.conformant;  // trivially conformant
        continue;
      }
      double pct = 100.0 * static_cast<double>(it->second.first) /
                   static_cast<double>(it->second.second);
      double threshold = core::action4_threshold(participant.program);
      bool ok = threshold >= 100.0 ? it->second.first == it->second.second
                                   : pct >= threshold;
      if (ok) ++c.conformant;
    }
  }
  return out;
}

}  // namespace

int main() {
  benchx::print_title("ablate_irr_maxlen",
                      "ablation: IRR invalid-length conformance rule");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);

  auto paper_rule = run(scenario, records, /*strict=*/false);
  auto strict_rule = run(scenario, records, /*strict=*/true);

  benchx::print_section("Action 4 conformance under both rules");
  std::printf("%-10s %28s %28s\n", "program", "paper rule (invlen ok)",
              "strict rule (invlen bad)");
  for (auto program : {core::Program::kIsp, core::Program::kCdn}) {
    const Counts& a = paper_rule[program];
    const Counts& b = strict_rule[program];
    std::printf("%-10s %17zu/%zu (%4.1f%%) %17zu/%zu (%4.1f%%)\n",
                std::string(core::to_string(program)).c_str(), a.conformant,
                a.total, a.total ? 100.0 * a.conformant / a.total : 0.0,
                b.conformant, b.total,
                b.total ? 100.0 * b.conformant / b.total : 0.0);
  }
  std::printf(
      "\nInterpretation: the strict rule reclassifies de-aggregating\n"
      "operators (aggregate-only IRR registrations) as unconformant,\n"
      "which is why the paper adopts the lenient rule (§3).\n");
  return 0;
}
