// Engineering microbenchmarks (google-benchmark) for the hot paths of the
// pipeline: trie lookups, RFC 6811 validation, IRR validation, RPSL and
// MRT codecs, hegemony computation, and route propagation. These are not
// paper artifacts; they validate that the substrate scales to the
// paper-sized workloads the fig benches run.
#include <benchmark/benchmark.h>

#include <sstream>

#include "astopo/graph.h"
#include "ihr/hegemony.h"
#include "irr/database.h"
#include "irr/rpsl.h"
#include "irr/validation.h"
#include "mrt/table_dump.h"
#include "netbase/prefix_trie.h"
#include "rpki/validation.h"
#include "simulator/propagation.h"
#include "topogen/scenario.h"
#include "util/csv.h"
#include "util/rng.h"

using namespace manrs;

namespace {

net::Prefix random_v4(util::Rng& rng, unsigned min_len = 8,
                      unsigned max_len = 24) {
  unsigned len =
      min_len + static_cast<unsigned>(rng.uniform(max_len - min_len + 1));
  return net::Prefix(
      net::IpAddress::v4(static_cast<uint32_t>(rng.next())), len);
}

rpki::VrpStore make_vrp_store(size_t n) {
  util::Rng rng(n);
  rpki::VrpStore store;
  for (size_t i = 0; i < n; ++i) {
    net::Prefix p = random_v4(rng);
    store.add(rpki::Vrp{p, p.length() + 2 > 32 ? 32 : p.length() + 2,
                        net::Asn(static_cast<uint32_t>(rng.uniform(70000)))});
  }
  return store;
}

void BM_PrefixParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Prefix::parse("203.0.113.128/25"));
    benchmark::DoNotOptimize(net::Prefix::parse("2001:db8:abcd::/48"));
  }
}
BENCHMARK(BM_PrefixParse);

void BM_TrieInsert(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 10000; ++i) prefixes.push_back(random_v4(rng));
  for (auto _ : state) {
    net::PrefixTrie<int> trie;
    for (size_t i = 0; i < prefixes.size(); ++i) {
      trie.insert(prefixes[i], static_cast<int>(i));
    }
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TrieInsert);

void BM_TrieCoveringLookup(benchmark::State& state) {
  util::Rng rng(2);
  net::PrefixTrie<int> trie;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    trie.insert(random_v4(rng), i);
  }
  std::vector<net::Prefix> queries;
  for (int i = 0; i < 1024; ++i) queries.push_back(random_v4(rng, 16, 32));
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.any_covering(queries[qi++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieCoveringLookup)->Arg(1000)->Arg(100000);

void BM_RovValidate(benchmark::State& state) {
  rpki::VrpStore store = make_vrp_store(static_cast<size_t>(state.range(0)));
  util::Rng rng(3);
  std::vector<bgp::PrefixOrigin> routes;
  for (int i = 0; i < 1024; ++i) {
    routes.push_back({random_v4(rng, 12, 24),
                      net::Asn(static_cast<uint32_t>(rng.uniform(70000)))});
  }
  size_t qi = 0;
  for (auto _ : state) {
    const auto& r = routes[qi++ & 1023];
    benchmark::DoNotOptimize(store.validate(r.prefix, r.origin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RovValidate)->Arg(10000)->Arg(300000);

void BM_IrrValidate(benchmark::State& state) {
  util::Rng rng(4);
  irr::IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  for (int i = 0; i < 100000; ++i) {
    irr::RouteObject route;
    route.prefix = random_v4(rng);
    route.origin = net::Asn(static_cast<uint32_t>(rng.uniform(70000)));
    db.add_route(std::move(route));
  }
  std::vector<bgp::PrefixOrigin> routes;
  for (int i = 0; i < 1024; ++i) {
    routes.push_back({random_v4(rng, 12, 24),
                      net::Asn(static_cast<uint32_t>(rng.uniform(70000)))});
  }
  size_t qi = 0;
  for (auto _ : state) {
    const auto& r = routes[qi++ & 1023];
    benchmark::DoNotOptimize(
        irr::validate_route(registry, r.prefix, r.origin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IrrValidate);

void BM_RpslParse(benchmark::State& state) {
  std::string doc;
  for (int i = 0; i < 1000; ++i) {
    doc += "route:      10." + std::to_string(i % 250) + "." +
           std::to_string(i / 250) + ".0/24\n";
    doc += "origin:     AS" + std::to_string(64000 + i) + "\n";
    doc += "mnt-by:     MAINT-EXAMPLE\nsource:     RADB\n\n";
  }
  for (auto _ : state) {
    auto objects = irr::parse_rpsl(doc);
    benchmark::DoNotOptimize(objects.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_RpslParse);

void BM_MrtEncodeDecode(benchmark::State& state) {
  util::Rng rng(5);
  bgp::Rib rib;
  uint32_t peer = rib.add_peer(net::Asn(65000));
  for (int i = 0; i < 1000; ++i) {
    std::vector<net::Asn> hops;
    for (int h = 0; h < 4; ++h) {
      hops.emplace_back(static_cast<uint32_t>(1 + rng.uniform(70000)));
    }
    rib.insert(random_v4(rng), peer, bgp::AsPath(std::move(hops)));
  }
  rib.finalize();
  for (auto _ : state) {
    std::ostringstream out;
    mrt::TableDumpWriter writer(out, 0);
    writer.write_rib(rib, "bench");
    std::istringstream in(out.str());
    bgp::Rib parsed = mrt::TableDumpReader::read_rib(in);
    benchmark::DoNotOptimize(parsed.entry_count());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MrtEncodeDecode);

// The temporal snapshot engine finalizes a staged Rib batch every day;
// on quiet days most ops are effective no-ops (withdraw-of-absent,
// re-announce-identical). Arg(0) = a pure no-op batch, which must take
// the staged_is_noop() fast path (no re-sort, no row churn); Arg(1) =
// the same batch plus one real insert, paying the full merge.
void BM_RibNoOpFinalize(benchmark::State& state) {
  util::Rng rng(7);
  bgp::Rib rib;
  uint32_t peer = rib.add_peer(net::Asn(65000));
  std::vector<net::Prefix> prefixes;
  std::vector<bgp::AsPath> paths;
  for (int i = 0; i < 1000; ++i) {
    prefixes.push_back(random_v4(rng));
    std::vector<net::Asn> hops;
    for (int h = 0; h < 4; ++h) {
      hops.emplace_back(static_cast<uint32_t>(1 + rng.uniform(70000)));
    }
    paths.emplace_back(std::move(hops));
    rib.insert(prefixes.back(), peer, paths.back());
  }
  rib.finalize();
  const bool real_op = state.range(0) != 0;
  uint32_t churn = 0;
  for (auto _ : state) {
    rib.begin_delta();
    for (size_t i = 0; i < prefixes.size(); i += 16) {
      rib.insert(prefixes[i], peer, paths[i]);          // identical path
      rib.erase(prefixes[i], peer + 1 + (churn & 1));   // absent peer
    }
    if (real_op) {
      // A genuinely different path for one prefix forces the full merge
      // (table size stays stable across iterations).
      rib.insert(prefixes[churn % prefixes.size()], peer,
                 paths[(churn + 1) % paths.size()]);
    }
    rib.finalize();
    benchmark::DoNotOptimize(rib.entry_count());
    ++churn;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(prefixes.size() / 16 * 2));
}
BENCHMARK(BM_RibNoOpFinalize)->Arg(0)->Arg(1);

void BM_CsvParse(benchmark::State& state) {
  std::string doc = "URI,ASN,IP Prefix,Max Length\n";
  for (int i = 0; i < 1000; ++i) {
    doc += "rsync://x/roa-" + std::to_string(i) + ".roa,AS" +
           std::to_string(i) + ",10.0." + std::to_string(i % 256) +
           ".0/24,24\n";
  }
  for (auto _ : state) {
    auto rows = util::parse_csv(doc);
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_CsvParse);

void BM_Hegemony(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<bgp::AsPath> paths;
  for (int v = 0; v < 50; ++v) {
    std::vector<net::Asn> hops{net::Asn(static_cast<uint32_t>(10000 + v))};
    for (int h = 0; h < 4; ++h) {
      hops.emplace_back(static_cast<uint32_t>(1 + rng.uniform(200)));
    }
    paths.push_back(bgp::AsPath(std::move(hops)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ihr::compute_hegemony(paths, 0.1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Hegemony);

void BM_Propagation(benchmark::State& state) {
  static const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  static const sim::PropagationSim simulator = scenario.make_sim();
  std::vector<net::Asn> origins;
  for (const auto& p : scenario.profiles) {
    origins.push_back(p.asn);
    if (origins.size() >= 64) break;
  }
  size_t oi = 0;
  for (auto _ : state) {
    auto result = simulator.propagate(origins[oi++ & 63],
                                      sim::AnnouncementClass{});
    benchmark::DoNotOptimize(result.words.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Propagation);

void BM_CustomerCone(benchmark::State& state) {
  static const topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  auto asns = scenario.graph.all_asns();
  size_t ai = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario.graph.customer_cone_size(asns[ai++ % asns.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CustomerCone);

}  // namespace

BENCHMARK_MAIN();
