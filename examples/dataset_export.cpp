// dataset_export: materialize every dataset the paper's pipeline consumes
// (§5) as files on disk, in the real-world formats:
//
//   out/rib.<collector>.mrt      TABLE_DUMP_V2 RIB dumps (RouteViews-like)
//   out/prefix2as.txt            CAIDA pfx2as
//   out/as-rel.txt               CAIDA AS relationships (serial-1)
//   out/as2org.txt               CAIDA as2org flat file
//   out/vrps.csv                 RIPE-style validated-ROA export
//   out/irr.<SOURCE>.db          RPSL dumps, one per registry
//   out/manrs-participants.csv   the MANRS participant list + join dates
//   out/ihr-prefix-origins.csv   IHR prefix-origin dataset
//   out/ihr-transits.csv         IHR transit dataset with hegemony
//
// A downstream user can point their own tooling (bgpdump, bgpq4, ...) at
// these files; this is also how the repository's data formats get
// exercised end to end.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "astopo/prefix2as.h"
#include "ihr/dataset.h"
#include "mrt/table_dump.h"
#include "rpki/archive.h"
#include "simulator/collector.h"
#include "topogen/scenario.h"

using namespace manrs;

int main(int argc, char** argv) {
  std::filesystem::path out_dir = argc > 1 ? argv[1] : "out";
  std::filesystem::create_directories(out_dir);

  topogen::Scenario scenario =
      topogen::build_scenario(topogen::ScenarioConfig::tiny());
  sim::PropagationSim simulator = scenario.make_sim();

  auto open = [&](const std::string& name) {
    std::ofstream file(out_dir / name, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n",
                   (out_dir / name).string().c_str());
      std::exit(1);
    }
    return file;
  };
  auto note = [&](const std::string& name, size_t items,
                  const char* what) {
    std::printf("  %-28s %8zu %s\n", name.c_str(), items, what);
  };

  std::printf("exporting datasets to %s/\n", out_dir.string().c_str());

  // Collector RIB -> MRT.
  sim::RouteCollector collector(simulator, scenario.vantage_points,
                                "route-views.sim");
  // Classify so filtering behaves as in the real system.
  std::vector<sim::Announcement> announcements;
  for (const ihr::PrefixOriginRecord& r :
       ihr::classify(scenario.announcements(), scenario.vrps, scenario.irr)) {
    announcements.push_back({r.prefix, r.origin, ihr::announcement_class(r)});
  }
  bgp::Rib rib = collector.collect(announcements);
  {
    auto file = open("rib.route-views.sim.mrt");
    mrt::TableDumpWriter writer(file, 1651363200);  // 2022-05-01 00:00 UTC
    size_t records = writer.write_rib(rib, collector.name());
    note("rib.route-views.sim.mrt", records, "TABLE_DUMP_V2 records");
  }

  // pfx2as from the decoded RIB (the CAIDA derivation).
  {
    auto rows = astopo::prefix2as_from_rib(rib);
    auto file = open("prefix2as.txt");
    astopo::write_prefix2as(file, rows);
    note("prefix2as.txt", rows.size(), "prefix-origin rows");
  }

  // AS relationships and as2org.
  {
    auto file = open("as-rel.txt");
    scenario.graph.write_as_rel(file);
    note("as-rel.txt", scenario.graph.edge_count(), "relationships");
  }
  {
    auto file = open("as2org.txt");
    scenario.as2org.write(file);
    note("as2org.txt", scenario.as2org.mapped_as_count(), "AS mappings");
  }

  // Validated ROAs.
  {
    std::vector<rpki::Vrp> vrps;
    scenario.vrps.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
    auto file = open("vrps.csv");
    rpki::write_vrp_csv(file, vrps, scenario.snapshot_date);
    note("vrps.csv", vrps.size(), "VRPs");
  }

  // IRR registries, one RPSL dump per source.
  for (const irr::IrrDatabase* db : scenario.irr.databases()) {
    std::string name = "irr." + db->name() + ".db";
    auto file = open(name);
    db->write_rpsl(file);
    note(name, db->route_count(), "route objects");
  }

  // MANRS participant list.
  {
    auto file = open("manrs-participants.csv");
    scenario.manrs.write_csv(file);
    note("manrs-participants.csv", scenario.manrs.participant_count(),
         "participants");
  }

  // IHR datasets.
  {
    ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
    ihr::IhrSnapshot snapshot =
        builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
    auto po_file = open("ihr-prefix-origins.csv");
    ihr::write_prefix_origin_csv(po_file, snapshot.prefix_origins);
    note("ihr-prefix-origins.csv", snapshot.prefix_origins.size(),
         "prefix-origin records");
    auto tr_file = open("ihr-transits.csv");
    ihr::write_transit_csv(tr_file, snapshot.transits);
    note("ihr-transits.csv", snapshot.transits.size(), "transit records");
  }

  std::printf("done.\n");
  return 0;
}
