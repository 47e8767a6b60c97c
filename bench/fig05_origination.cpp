// Reproduces Fig 5a (CDF of % RPKI-Valid originated prefixes) and Fig 5b
// (CDF of % IRR-Valid originated prefixes) for the six populations, plus
// the §8.1/§8.2 narrative statistics (bimodality, invalid originators,
// IRR-only registration).
#include <cstdio>
#include <map>

#include "astopo/asrank.h"
#include "harness.h"

using namespace manrs;

namespace {

struct GroupStats {
  util::EmpiricalDistribution rpki_valid_pct;
  util::EmpiricalDistribution irr_valid_pct;
  size_t n = 0;
  size_t all_rpki_valid = 0;
  size_t zero_rpki_valid = 0;
  size_t invalid_originators = 0;  // originate >= 1 RPKI Invalid prefix
  size_t invalid_prefixes = 0;
  size_t all_irr_valid = 0;
  size_t irr_only = 0;  // zero RPKI presence, some IRR validity
};

}  // namespace

int main() {
  benchx::print_title("fig05_origination",
                      "Fig 5a/5b + Findings 8.1/8.2 (prefix origination)");
  topogen::Scenario scenario =
      topogen::build_scenario(benchx::config_from_env());
  auto records =
      ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr);
  auto origination = core::compute_origination_stats(records);

  std::map<std::pair<int, bool>, GroupStats> groups;
  for (const auto& [asn_value, stats] : origination) {
    net::Asn asn(asn_value);
    auto size = astopo::classify_size(scenario.graph, asn);
    bool member = scenario.manrs.is_member(asn);
    GroupStats& g = groups[{static_cast<int>(size), member}];
    ++g.n;
    g.rpki_valid_pct.add(stats.og_rpki_valid());
    g.irr_valid_pct.add(stats.og_irr_valid());
    if (stats.rpki_valid == stats.total) ++g.all_rpki_valid;
    if (stats.rpki_valid == 0) ++g.zero_rpki_valid;
    if (stats.rpki_invalid > 0) {
      ++g.invalid_originators;
      g.invalid_prefixes += stats.rpki_invalid;
    }
    if (stats.irr_valid == stats.total) ++g.all_irr_valid;
    if (stats.rpki_valid == 0 && stats.rpki_invalid == 0 &&
        stats.irr_valid > 0) {
      ++g.irr_only;
    }
  }

  auto label = [&](int size, bool member, size_t n) {
    return benchx::group_label(
        {static_cast<astopo::SizeClass>(size), member}, n);
  };

  benchx::print_section("Fig 5a: CDF of % originated RPKI Valid prefixes");
  for (const auto& [key, g] : groups) {
    benchx::print_cdf(label(key.first, key.second, g.n), g.rpki_valid_pct,
                      0, 100);
    benchx::export_cdf("fig05a", label(key.first, key.second, g.n),
                       g.rpki_valid_pct);
  }

  benchx::print_section("Fig 5b: CDF of % originated IRR Valid prefixes");
  for (const auto& [key, g] : groups) {
    benchx::print_cdf(label(key.first, key.second, g.n), g.irr_valid_pct, 0,
                      100);
    benchx::export_cdf("fig05b", label(key.first, key.second, g.n),
                       g.irr_valid_pct);
  }

  benchx::print_section("Finding 8.1 narrative (RPKI validity)");
  struct PaperRow {
    const char* group;
    const char* all_valid;
    const char* zero_valid;
    const char* invalid_orig;
  };
  static const std::map<std::pair<int, bool>, PaperRow> kPaper{
      {{0, true}, {"small MANRS", "60.1%", "23.6%", "0"}},
      {{0, false}, {"small non-MANRS", "24.7%", "68.1%", "0.7%"}},
      {{1, true}, {"medium MANRS", "41.5%", "14.8%", "2.8%"}},
      {{1, false}, {"medium non-MANRS", "23.8%", "41.4%", "4.5%"}},
      {{2, true}, {"large MANRS", "12.5%", "0%", "20.8%"}},
      {{2, false}, {"large non-MANRS", "5.9%", "11.8%+", "32.9%"}},
  };
  for (const auto& [key, g] : groups) {
    auto it = kPaper.find(key);
    if (it == kPaper.end() || g.n == 0) continue;
    char measured[128];
    std::snprintf(measured, sizeof(measured), "%.1f%% / %.1f%% / %.1f%%",
                  100.0 * g.all_rpki_valid / g.n,
                  100.0 * g.zero_rpki_valid / g.n,
                  100.0 * g.invalid_originators / g.n);
    char paper[128];
    std::snprintf(paper, sizeof(paper), "%s / %s / %s (all/zero/invalid)",
                  it->second.all_valid, it->second.zero_valid,
                  it->second.invalid_orig);
    benchx::print_vs_paper(it->second.group, measured, paper);
  }

  benchx::print_section("Finding 8.2 narrative (IRR validity, IRR-only)");
  static const std::map<std::pair<int, bool>, std::pair<const char*, const char*>>
      kPaperIrr{
          {{0, true}, {"72.3%", "23.6%"}},
          {{0, false}, {"70.0%", "65.4%"}},
          {{1, true}, {"52.1%", "14.8%"}},
          {{1, false}, {"48.0%", "41.0%"}},
          {{2, true}, {"(median 63.5%)", "0%"}},
          {{2, false}, {"(median 84.0%)", "11.8%"}},
      };
  for (const auto& [key, g] : groups) {
    auto it = kPaperIrr.find(key);
    if (it == kPaperIrr.end() || g.n == 0) continue;
    char measured[160];
    std::snprintf(measured, sizeof(measured),
                  "all-IRR %.1f%% (med %.1f%%), IRR-only %.1f%%",
                  100.0 * g.all_irr_valid / g.n, g.irr_valid_pct.median(),
                  100.0 * g.irr_only / g.n);
    char paper[128];
    std::snprintf(paper, sizeof(paper), "all-IRR %s, IRR-only %s",
                  it->second.first, it->second.second);
    benchx::print_vs_paper(label(key.first, key.second, g.n), measured,
                           paper);
  }

  benchx::print_section("Finding 8.2 headline");
  double manrs_large_median =
      groups.count({2, true}) ? groups[{2, true}].irr_valid_pct.median() : 0;
  double other_large_median =
      groups.count({2, false}) ? groups[{2, false}].irr_valid_pct.median()
                               : 0;
  benchx::print_vs_paper(
      "large MANRS median IRR validity below large non-MANRS",
      manrs_large_median < other_large_median ? "yes" : "NO",
      "yes (63.5% vs 84.0%)");
  return 0;
}
