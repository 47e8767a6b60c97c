// ingest: the collector-data path.
//
// The inputs are a collector's: a TABLE_DUMP_V2 dump of its RIB on day 0,
// and a BGP4MP stream that takes that RIB to the RIB of the same collector
// kDay days later, as topogen::EcosystemEvolution evolves the ecosystem
// (announcements flapping, born and withdrawn; ROA and IRR churn; new
// links; membership batches changing filtering policies). Each op decodes
// the dump from memory with read_rib(span) and folds the stream into the
// decoded RIB with fold_into. It is the only workload where mrt and
// bgp::Rib do most of the work, and it sets the read path (decode) beside
// the write path (staged inserts and erase tombstones).
//
// Set-up makes the inputs in a child process, this program run with
// --prepare DIR, and reads them back from DIR. The child builds both RIBs
// with RouteCollector::collect, whose own peak RSS (about 1.6 GB for a
// RIB of about 90 MB) would otherwise set the ingest process's peak and
// hide the decode and fold path's memory behind it.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>

#include "irr/validation.h"
#include "mrt/bgp4mp.h"
#include "mrt/frame_index.h"
#include "mrt/table_dump.h"
#include "simulator/collector.h"
#include "topogen/evolution.h"
#include "topogen/scenario.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace manrs;

// Of the scenario's 30 vantage points: all 30 give a 174 MB dump, 4.5M
// entries and 5 GB of RSS; 8 keep the dump near 50 MB.
constexpr size_t kVantages = 8;
// The stream spans one year of the evolution. The model's churn is mostly
// flapping prefixes, so a shorter span gives a stream of a few thousand
// updates (8,229 for four weeks), mostly withdrawals; a year adds the
// year's births, links and policy changes (about 35,000 updates).
constexpr int kDay = 364;
constexpr uint32_t kTimestamp = 1651363200;  // 2022-05-01, the snapshot day

// The collector RIB of the ecosystem on `day`: that day's topology,
// filtering policies, VRPs, IRR and announcements, propagated without a
// cache (one collect per simulator, nothing to reuse).
bgp::Rib collect_on(const topogen::EcosystemEvolution& evolution, int day,
                    const std::vector<net::Asn>& vantages, double* collect_ms) {
  const astopo::AsGraph graph = evolution.graph_at(day);
  sim::PropagationSim sim(graph);
  for (const topogen::AsProfile& profile : evolution.base().profiles) {
    sim.set_policy(profile.asn, profile.policy);
  }
  for (const sim::SimDelta::PolicyChange& change :
       evolution.policy_changes_through(day)) {
    sim.set_policy(change.asn, change.policy);
  }
  sim.set_cache_enabled(false);
  const rpki::VrpStore vrps = evolution.vrps_at(day);
  const irr::IrrRegistry irr = evolution.irr_at(day);
  std::vector<sim::Announcement> announcements;
  for (const bgp::PrefixOrigin& po : evolution.announcements_at(day)) {
    sim::AnnouncementClass cls;
    cls.rpki_invalid = rpki::is_invalid(vrps.validate(po.prefix, po.origin));
    cls.irr_invalid = irr::validate_route(irr, po.prefix, po.origin) ==
                      irr::IrrStatus::kInvalidAsn;
    cls.variant = (cls.rpki_invalid || cls.irr_invalid)
                      ? sim::filter_variant(po.prefix)
                      : 0;
    announcements.push_back(sim::Announcement{po.prefix, po.origin, cls});
  }
  const Clock::time_point t0 = Clock::now();
  bgp::Rib rib = sim::RouteCollector(sim, vantages).collect(announcements);
  *collect_ms = ms_between(t0, Clock::now());
  return rib;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The sizes, digests and timings the child reports beside the dump and
// the stream: "name value" lines of whole numbers.
std::map<std::string, std::string> read_facts(
    const std::filesystem::path& path) {
  std::map<std::string, std::string> facts;
  std::ifstream in(path);
  std::string name;
  std::string value;
  while (in >> name >> value) facts[name] = value;
  return facts;
}

class Ingest final : public Workload {
 public:
  explicit Ingest(const Seeds& seeds) : seeds_(seeds) {}

  void setup(Tracer* tracer) override {
    {
      Span span(tracer, "ingest.prepare");
      prepare();
    }
    for (const char* name : {"collect_us_before", "collect_us_after"}) {
      count(tracer, "simulator.collect_ms",
            static_cast<double>(fact(name)) / 1000.0);
    }
    op(nullptr);  // warm-up
  }

  // The dump must decode to the collector's RIB, entry for entry (its
  // digest and sizes, computed by the child from the RIB it wrote).
  bool verify_setup() override {
    rib_ = bgp::Rib{};  // one RIB at a time, as in the ops
    size_t bad = 0;
    const bgp::Rib decoded =
        mrt::TableDumpReader::read_rib(util::as_bytes(dump_), &bad);
    if (bad != 0 || decoded.prefix_count() != fact("before_prefixes") ||
        decoded.entry_count() != fact("before_entries") ||
        rib_digest(decoded) != fact("before_digest")) {
      std::fprintf(stderr,
                   "ingest: decoded dump differs from the collector RIB "
                   "(%zu bad records, %zu prefixes, %zu entries)\n",
                   bad, decoded.prefix_count(), decoded.entry_count());
      setup_ok_ = false;
    }
    return setup_ok_;
  }

  double op(Tracer* tracer) override {
    rib_ = bgp::Rib{};
    size_t bad = 0;
    size_t folded = 0;
    size_t stream_bad = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1;
    {
      Span op_span(tracer, "ingest.op");
      {
        Span span(tracer, "mrt.decode");
        rib_ = mrt::TableDumpReader::read_rib(util::as_bytes(dump_), &bad);
      }
      t1 = Clock::now();
      Span span(tracer, "mrt.fold");
      mrt::UpdateStreamReader reader(util::as_bytes(stream_));
      folded = reader.fold_into(rib_);
      stream_bad = reader.bad_records() + reader.skipped_records();
    }
    const Clock::time_point t2 = Clock::now();
    const double ms = ms_between(t0, t2);
    count(tracer, "mrt.decode_mb_per_s",
          static_cast<double>(dump_.size()) / (1024.0 * 1024.0) /
              (ms_between(t0, t1) / 1000.0));
    count(tracer, "mrt.fold_updates_per_s",
          static_cast<double>(folded) / (ms_between(t1, t2) / 1000.0));
    count(tracer, "mrt.updates", static_cast<double>(folded));
    count(tracer, "bgp.entries", static_cast<double>(rib_.entry_count()));
    last_ok_ = setup_ok_ && bad == 0 && stream_bad == 0 &&
               folded == fact("stream_records") &&
               rib_.prefix_count() == fact("after_prefixes") &&
               rib_.entry_count() == fact("after_entries") &&
               rib_digest(rib_) == fact("after_digest");
    if (!last_ok_) {
      std::fprintf(stderr,
                   "ingest: op failed (%zu bad dump records, %zu bad or "
                   "skipped stream records, %zu updates folded; folded RIB "
                   "%zu prefixes, %zu entries, differs from the day-%d "
                   "RIB)\n",
                   bad, stream_bad, folded, rib_.prefix_count(),
                   rib_.entry_count(), kDay);
    }
    return ms;
  }

  bool last_op_ok() const override { return last_ok_; }

  void probe(Tracer* tracer) override {
    Span probe_span(tracer, "ingest.probe");
    Span span(tracer, "mrt.scan_frames");
    const mrt::FrameIndex index =
        mrt::scan_frames_parallel(util::as_bytes(dump_));
    count(tracer, "mrt.records", static_cast<double>(index.records.size()));
  }

  std::string describe() const override {
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "ingest: %zu vantages, %zu prefixes, %zu entries, dump %zu bytes; "
        "stream to day %d: %zu bytes, %zu records, %zu prefix updates "
        "(%.1f%% withdrawals), target %zu prefixes, %zu entries",
        fact("vantages"), fact("before_prefixes"), fact("before_entries"),
        dump_.size(), kDay, stream_.size(), fact("stream_records"),
        fact("updates"),
        100.0 * static_cast<double>(fact("withdrawals")) /
            static_cast<double>(std::max<size_t>(1, fact("updates"))),
        fact("after_prefixes"), fact("after_entries"));
    return buf;
  }

 private:
  // Runs this program with --prepare into a directory beside it, waits
  // for it, and reads the dump, the stream and the facts back.
  void prepare() {
    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe");
    const std::filesystem::path dir =
        exe.parent_path() / ("ingest-" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    std::vector<std::string> args = {exe.string(),
                                     "--workload",
                                     "ingest",
                                     "--scenario-seed",
                                     std::to_string(seeds_.scenario),
                                     "--evolution-seed",
                                     std::to_string(seeds_.evolution),
                                     "--prepare",
                                     dir.string()};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int status = 0;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) !=
            0 ||
        waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "ingest: preparing the inputs failed\n");
      std::filesystem::remove_all(dir);
      std::exit(1);
    }
    rusage child{};
    getrusage(RUSAGE_CHILDREN, &child);
    std::fprintf(stderr, "ingest: inputs prepared, child peak RSS %.0f MB\n",
                 static_cast<double>(child.ru_maxrss) / 1024.0);
    dump_ = read_file(dir / "dump.mrt");
    stream_ = read_file(dir / "updates.mrt");
    facts_ = read_facts(dir / "facts.txt");
    std::filesystem::remove_all(dir);
  }

  uint64_t fact(const std::string& name) const {
    const auto it = facts_.find(name);
    return it == facts_.end() ? 0 : std::stoull(it->second);
  }

  Seeds seeds_;
  std::string dump_;
  std::string stream_;
  std::map<std::string, std::string> facts_;
  bgp::Rib rib_;
  bool setup_ok_ = true;
  bool last_ok_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_ingest(const Seeds& seeds) {
  return std::make_unique<Ingest>(seeds);
}

int prepare_ingest(const Seeds& seeds, const std::string& dir) {
  topogen::ScenarioConfig config = topogen::ScenarioConfig::paper_default();
  config.seed = seeds.scenario;
  const topogen::Scenario scenario = topogen::build_scenario(config);
  topogen::EvolutionConfig evolution_config;
  evolution_config.seed = seeds.evolution;
  const topogen::EcosystemEvolution evolution(scenario, evolution_config);
  std::vector<net::Asn> vantages = scenario.vantage_points;
  util::Rng pick(seeds.scenario ^ 0x1e57);  // the collector's peers
  for (size_t i = 0; i + 1 < vantages.size(); ++i) {  // seeded shuffle
    std::swap(vantages[i], vantages[i + pick.uniform(vantages.size() - i)]);
  }
  vantages.resize(std::min(kVantages, vantages.size()));
  double collect_ms_before = 0.0;
  double collect_ms_after = 0.0;
  const bgp::Rib before = collect_on(evolution, 0, vantages, &collect_ms_before);
  const bgp::Rib after = collect_on(evolution, kDay, vantages, &collect_ms_after);

  std::ofstream dump(dir + "/dump.mrt", std::ios::binary);
  mrt::TableDumpWriter(dump, kTimestamp).write_rib(before, "perfbench");
  std::ofstream stream(dir + "/updates.mrt", std::ios::binary);
  mrt::Bgp4mpWriter writer(stream);
  const std::vector<mrt::Bgp4mpRecord> records =
      mrt::diff_ribs(before, after, kTimestamp);
  size_t updates = 0;
  size_t withdrawals = 0;
  for (const mrt::Bgp4mpRecord& r : records) {
    writer.write(r);
    updates += r.update.announced.size() + r.update.withdrawn.size();
    withdrawals += r.update.withdrawn.size();
  }
  std::ofstream facts(dir + "/facts.txt");
  facts << "vantages " << vantages.size() << "\n"
        << "before_prefixes " << before.prefix_count() << "\n"
        << "before_entries " << before.entry_count() << "\n"
        << "before_digest " << rib_digest(before) << "\n"
        << "after_prefixes " << after.prefix_count() << "\n"
        << "after_entries " << after.entry_count() << "\n"
        << "after_digest " << rib_digest(after) << "\n"
        << "stream_records " << records.size() << "\n"
        << "updates " << updates << "\n"
        << "withdrawals " << withdrawals << "\n"
        << "collect_us_before " << static_cast<uint64_t>(1000 * collect_ms_before)
        << "\n"
        << "collect_us_after " << static_cast<uint64_t>(1000 * collect_ms_after)
        << "\n";
  dump.close();
  stream.close();
  facts.close();
  return dump && stream && facts ? 0 : 1;
}

}  // namespace perfbench
