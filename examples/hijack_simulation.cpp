// hijack_simulation: the motivating scenario from the paper's introduction
// (§1, §2.1) -- a BGP prefix-origin hijack -- played out on the simulator,
// showing how RPKI registration plus ROV deployment (what MANRS Actions
// 1/4 push for) contains the attack.
//
// Three experiments on the same topology:
//   1. victim has NO ROA: the hijack is RPKI NotFound, nothing drops it;
//   2. victim has a ROA: the hijack classifies RPKI Invalid and every
//      ROV-deploying AS (and its customer cone) is protected;
//   3. sweep ROV deployment 0%..100% among large networks and measure the
//      fraction of the Internet accepting the hijacked route.
#include <cstdio>

#include "rpki/validation.h"
#include "simulator/propagation.h"
#include "topogen/scenario.h"
#include "util/rng.h"

using namespace manrs;

namespace {

/// Fraction of ASes that route toward the attacker rather than the victim
/// when both announce the same prefix. With equal prefix lengths, each AS
/// picks by policy preference and path length -- exactly how a real MOAS
/// conflict resolves -- so we propagate both and compare distances.
double hijack_capture_share(const sim::PropagationSim& simulator,
                            net::Asn victim, net::Asn attacker,
                            const sim::AnnouncementClass& attacker_class) {
  auto victim_routes =
      simulator.propagate(victim, sim::AnnouncementClass{});
  auto attacker_routes = simulator.propagate(attacker, attacker_class);
  size_t attacker_wins = 0, total = 0;
  const int32_t n = static_cast<int32_t>(simulator.indexer().size());
  for (int32_t id = 0; id < n; ++id) {
    net::Asn asn = simulator.indexer().asn_of(id);
    if (asn == victim || asn == attacker) continue;
    bool has_victim = victim_routes.reached(id);
    bool has_attacker = attacker_routes.reached(id);
    if (!has_victim && !has_attacker) continue;
    ++total;
    if (!has_attacker) continue;
    if (!has_victim) {
      ++attacker_wins;
      continue;
    }
    // Both available: BGP preference = route source class, then distance.
    auto v_src = victim_routes.source(id);
    auto a_src = attacker_routes.source(id);
    if (a_src > v_src ||
        (a_src == v_src &&
         attacker_routes.distance(id) < victim_routes.distance(id))) {
      ++attacker_wins;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(attacker_wins) /
                          static_cast<double>(total);
}

}  // namespace

int main() {
  topogen::ScenarioConfig config = topogen::ScenarioConfig::tiny();
  config.seed = 7;
  topogen::Scenario scenario = topogen::build_scenario(config);

  // Victim: a small MANRS AS; attacker: a small non-MANRS AS far away.
  net::Asn victim, attacker;
  for (const auto& p : scenario.profiles) {
    if (p.manrs && p.size == astopo::SizeClass::kSmall &&
        victim.value() == 0) {
      victim = p.asn;
    }
    if (!p.manrs && p.size == astopo::SizeClass::kSmall &&
        p.org_id != scenario.profile_of(victim)->org_id) {
      attacker = p.asn;
    }
  }
  std::printf("victim: %s (MANRS member), attacker: %s\n\n",
              victim.to_string().c_str(), attacker.to_string().c_str());

  sim::PropagationSim simulator = scenario.make_sim();

  // Experiment 1: no ROA -> hijack is RPKI NotFound, ROV cannot help.
  sim::AnnouncementClass not_found;  // no validity flags set
  double share1 =
      hijack_capture_share(simulator, victim, attacker, not_found);
  std::printf("1. victim without ROA: hijack classifies NotFound\n");
  std::printf("   attacker captures %.1f%% of routing decisions\n\n",
              100.0 * share1);

  // Experiment 2: victim registered a ROA -> the hijacked announcement is
  // RPKI Invalid and ROV deployers drop it.
  sim::AnnouncementClass invalid;
  invalid.rpki_invalid = true;
  double share2 = hijack_capture_share(simulator, victim, attacker, invalid);
  std::printf("2. victim with ROA (MANRS Action 4): hijack is RPKI Invalid\n");
  std::printf("   attacker captures %.1f%% (%.1fx reduction)\n\n",
              100.0 * share2, share2 > 0 ? share1 / share2 : 999.0);

  // Experiment 3: ROV deployment sweep among large networks.
  std::printf("3. ROV deployment sweep (large networks deploying ROV)\n");
  std::printf("   %-10s %s\n", "deployed", "hijack capture share");
  for (double rate : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    sim::PropagationSim sweep(scenario.graph);
    util::Rng rng(42);
    for (const auto& p : scenario.profiles) {
      sim::FilterPolicy policy;  // only ROV, nothing else
      if (p.size == astopo::SizeClass::kLarge) {
        policy.rov = rng.bernoulli(rate);
      }
      sweep.set_policy(p.asn, policy);
    }
    double share = hijack_capture_share(sweep, victim, attacker, invalid);
    std::printf("   %8.0f%% %18.1f%%\n", 100.0 * rate, 100.0 * share);
  }
  std::printf(
      "\nTakeaway: registration alone (Action 4) does nothing until\n"
      "transit networks filter on it (Action 1 / ROV) -- and partial\n"
      "deployment by large networks already shields their whole cones,\n"
      "which is the collective-action argument behind MANRS.\n");
  return 0;
}
