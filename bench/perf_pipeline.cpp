// perf_pipeline -- wall-clock benchmark of the parallelized pipeline
// stages, with a machine-readable JSON trail for the perf trajectory
// across PRs.
//
// Times each stage once with the exact serial fallback (1 thread) and
// once with the parallel pool, at the scenario scale selected by
// MANRS_SCALE (tiny / default / large / full):
//
//   scenario_gen topogen::build_scenario -- synthetic-Internet generation
//                (per-AS plans fan out; allocation + emission serial)
//   propagation_single
//                PropagationSim::propagate -- ONE engine call (largest
//                group, no fan-out, serial only): the raw cost of a
//                one-lane sweep of the lane engine, after a warmup
//                call that builds the lazy drop masks
//   propagation_batched
//                PropagationSim::propagate_cached(requests) -- the
//                batched lane-engine resolve of every announcement
//                group (cache cleared first), without path extraction
//                or the RIB merge: the raw many-origin sweep cost at
//                the current MANRS_BATCH_WIDTH
//   propagation  RouteCollector::collect -- per-(origin, validity-class)
//                BGP propagation fan-out into the collector RIB (the
//                propagation cache is cleared before each timed run, so
//                this measures computation, not cache hits)
//   rib_merge    sim::merge_group_entries -- sharded sort-then-build of
//                the flat RIB rows from precomputed group entries
//   hegemony     IhrSnapshotBuilder::build -- per-group propagation plus
//                AS-hegemony over every (vantage, origin) path set; runs
//                against the cache warmed by the propagation stage, so
//                it measures the cross-stage reuse the shared
//                propagation cache provides (hit counts are printed and
//                recorded in the run JSON as "prop_cache")
//   mrt_decode   TableDumpReader::read_rib -- TABLE_DUMP_V2 zero-copy
//                decode of the serialized collector RIB (frame-index
//                scan + in-place span parse, the read_rib_file path)
//   bgp4mp_fold  UpdateStreamReader::fold_into -- BGP4MP update-stream
//                fold of the full table (one announce per entry) into a
//                live RIB; serial only, the fold is stream-ordered
//   snapshot_series
//                benchx::SnapshotSeries -- MANRS_SERIES_DAYS (default 64)
//                days of daily-delta ecosystem evolution recomputed
//                incrementally (delta-aware cache invalidation, memoized
//                hegemony views), against the same days rebuilt from
//                scratch; both serial, every day byte-checked against the
//                cold-rebuild oracle; the row's "speedup" is cold/incr
//                and per-day {hits, misses, invalidated} land in the run
//                JSON under "snapshot_series"
//
// Output: a human-readable table on stdout and BENCH_pipeline.json
// (override the path with MANRS_BENCH_JSON). The JSON accumulates one
// run object per invocation ({"bench": ..., "runs": [...]}) so the perf
// trajectory across PRs is never overwritten; rows are {stage, scale,
// threads, wall_ms, speedup}, with "oversubscribed": true on rows whose
// thread count exceeds hardware_concurrency -- on such hosts the
// parallel rows measure pool overhead, not parallel speedup, and a
// sub-1.0 "speedup" is expected rather than a regression. Each run also
// stamps "batch_width" (the lane width every batched stage ran at) and
// "path_arena" (cumulative extract_paths counters; shared_hops is the
// portion of all emitted hops served from the arena's suffix memo).
// Parallel thread count: MANRS_THREADS when set, otherwise
// max(hardware_concurrency, 4) so the pool machinery is exercised even
// on small hosts.
//
// Every stage's parallel result is checked against the serial result
// (entry counts) before timings are reported; the golden byte-equality
// tests live in tests/test_parallel_golden.cpp.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "irr/validation.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump.h"
#include "rpki/validation.h"
#include "simulator/collector.h"
#include "topogen/scenario.h"
#include "util/bytes.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

using Clock = std::chrono::steady_clock;
using manrs::net::Asn;

double time_ms(const std::function<void()>& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  Clock::time_point t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct StageRow {
  std::string stage;
  size_t threads = 1;
  double wall_ms = 0.0;
  double speedup = 1.0;
  bool oversubscribed = false;
};

std::string scale_name() {
  const char* scale = std::getenv("MANRS_SCALE");
  if (scale == nullptr) return "default";
  return scale;
}

std::string env_or_default(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return "default";
  return value;
}

/// Short git revision of the tree the binary runs in, "unknown" when
/// git is unavailable (tarball builds, stripped CI checkouts).
std::string git_revision() {
  std::string rev;
  std::FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) rev = buf;
    pclose(pipe);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  if (rev.empty()) rev = "unknown";
  return rev;
}

/// Classify announcements the way the IHR builder does, so propagation
/// groups match the real pipeline's.
std::vector<manrs::sim::Announcement> classify(
    const manrs::topogen::Scenario& scenario) {
  std::vector<manrs::sim::Announcement> out;
  for (const manrs::ihr::PrefixOriginRecord& r : manrs::ihr::classify(
           scenario.announcements(), scenario.vrps, scenario.irr)) {
    out.push_back(manrs::sim::Announcement{
        r.prefix, r.origin, manrs::ihr::announcement_class(r)});
  }
  return out;
}

/// Serialize one run (this invocation) as a JSON object. `series_json` is
/// the pre-rendered "snapshot_series" object (empty when the stage was
/// skipped).
std::string run_json(const std::string& scale, size_t threads_parallel,
                     const manrs::sim::PropagationCacheStats& cache,
                     uint64_t hegemony_hits,
                     const manrs::sim::PathArenaStats& arena,
                     const std::string& series_json,
                     const std::vector<StageRow>& rows) {
  std::ostringstream out;
  char buf[256];
  out << "{\n";
  out << "      \"scale\": \"" << scale << "\",\n";
  // Stamp the knobs that shape the numbers, so accumulated runs stay
  // comparable: the parallel grain, the propagation cache budget, and
  // the revision the binary was built from.
  out << "      \"grain\": \"" << env_or_default("MANRS_GRAIN") << "\",\n";
  out << "      \"prop_cache_mb\": \""
      << env_or_default("MANRS_PROP_CACHE_MB") << "\",\n";
  out << "      \"git_rev\": \"" << git_revision() << "\",\n";
  std::snprintf(buf, sizeof(buf), "      \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
  out << buf;
  std::snprintf(buf, sizeof(buf), "      \"threads_parallel\": %zu,\n",
                threads_parallel);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "      \"prop_cache\": {\"hits\": %llu, \"misses\": %llu, "
                "\"entries\": %zu, \"hegemony_hits\": %llu},\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses), cache.entries,
                static_cast<unsigned long long>(hegemony_hits));
  out << buf;
  std::snprintf(buf, sizeof(buf), "      \"batch_width\": %zu,\n",
                manrs::sim::batch_width());
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "      \"path_arena\": {\"paths\": %llu, \"hops\": %llu, "
                "\"shared_hops\": %llu},\n",
                static_cast<unsigned long long>(arena.paths),
                static_cast<unsigned long long>(arena.hops),
                static_cast<unsigned long long>(arena.shared_hops));
  out << buf;
  if (!series_json.empty()) {
    out << "      \"snapshot_series\": " << series_json << ",\n";
  }
  out << "      \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const StageRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "        {\"stage\": \"%s\", \"scale\": \"%s\", "
                  "\"threads\": %zu, \"wall_ms\": %.3f, \"speedup\": %.3f",
                  r.stage.c_str(), scale.c_str(), r.threads, r.wall_ms,
                  r.speedup);
    out << buf;
    if (r.oversubscribed) out << ", \"oversubscribed\": true";
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "      ]\n";
  out << "    }";
  return out.str();
}

/// Pull the serialized run objects out of an existing BENCH_pipeline.json
/// ({"bench": ..., "runs": [...]}) so a new run can be appended without
/// rewriting history. Unknown / legacy content yields no runs.
std::vector<std::string> extract_runs(const std::string& text) {
  std::vector<std::string> runs;
  size_t pos = text.find("\"runs\"");
  if (pos == std::string::npos) return runs;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return runs;
  int bracket = 0;
  int brace = 0;
  size_t start = std::string::npos;
  for (size_t i = pos; i < text.size(); ++i) {
    char c = text[i];
    if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      if (--bracket == 0 && brace == 0) break;
    } else if (c == '{') {
      if (brace++ == 0) start = i;
    } else if (c == '}') {
      if (--brace == 0 && start != std::string::npos) {
        runs.push_back(text.substr(start, i - start + 1));
        start = std::string::npos;
      }
    }
  }
  return runs;
}

void write_json(const std::string& path, const std::string& new_run) {
  std::vector<std::string> runs;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      runs = extract_runs(text.str());
    }
  }
  runs.push_back(new_run);

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perf_pipeline: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"bench\": \"perf_pipeline\",\n");
  std::fprintf(file, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(file, "    %s%s\n", runs[i].c_str(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
}

}  // namespace

int main() {
  using namespace manrs;

  const std::string scale = scale_name();
  size_t threads = util::default_thread_count();
  if (std::getenv("MANRS_THREADS") == nullptr && threads < 4) threads = 4;
  const bool oversubscribed = threads > std::thread::hardware_concurrency();
  const char* json_env = std::getenv("MANRS_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_pipeline.json";

  benchx::print_title("perf_pipeline",
                      "pipeline stage wall-clock (serial vs parallel)");
  std::printf("scale %s, parallel pool %zu threads, hardware %u%s\n",
              scale.c_str(), threads, std::thread::hardware_concurrency(),
              oversubscribed ? " (oversubscribed)" : "");

  std::vector<StageRow> rows;
  auto record_stage = [&](const std::string& stage, double serial_ms,
                          double parallel_ms) {
    rows.push_back(StageRow{stage, 1, serial_ms, 1.0, false});
    rows.push_back(StageRow{stage, threads, parallel_ms,
                            parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
                            oversubscribed});
    std::printf("%-12s serial %9.1f ms   parallel(%zu) %9.1f ms   "
                "speedup %.2fx%s\n",
                stage.c_str(), serial_ms, threads, parallel_ms,
                parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
                oversubscribed ? " (oversubscribed)" : "");
  };

  // --- scenario_gen: synthetic-Internet generation -----------------------
  topogen::ScenarioConfig config = benchx::config_from_env();
  topogen::Scenario scenario, scenario_parallel;
  util::set_thread_count(1);
  double gen_serial =
      time_ms([&] { scenario = topogen::build_scenario(config); });
  util::set_thread_count(threads);
  double gen_parallel =
      time_ms([&] { scenario_parallel = topogen::build_scenario(config); });
  if (scenario.dated_announcements.size() !=
      scenario_parallel.dated_announcements.size()) {
    std::fprintf(stderr, "perf_pipeline: scenario_gen mismatch (%zu vs %zu)\n",
                 scenario.dated_announcements.size(),
                 scenario_parallel.dated_announcements.size());
    return 1;
  }
  record_stage("scenario_gen", gen_serial, gen_parallel);

  sim::PropagationSim simulator = scenario.make_sim();
  std::vector<sim::Announcement> announcements = classify(scenario);
  sim::RouteCollector collector(simulator, scenario.vantage_points);
  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
  const std::vector<sim::AnnouncementGroup> groups =
      sim::group_announcements(announcements);

  // --- propagation_single: one engine call, no fan-out -------------------
  // The raw per-call cost of the propagation engine on the largest
  // group: one one-lane sweep. A warmup call builds the lazy drop masks
  // and sizes the thread-local lane workspace, so the timed call is the
  // steady state.
  if (groups.empty()) {
    std::fprintf(stderr, "perf_pipeline: no announcement groups\n");
    return 1;
  }
  size_t big = 0;
  for (size_t g = 1; g < groups.size(); ++g) {
    if (groups[g].prefixes.size() > groups[big].prefixes.size()) big = g;
  }
  util::set_thread_count(1);
  (void)simulator.propagate(groups[big].origin, groups[big].cls);  // warmup
  sim::PropagationResult single;
  double single_ms = time_ms(
      [&] { single = simulator.propagate(groups[big].origin, groups[big].cls); });
  if (single.size() != simulator.indexer().size()) {
    std::fprintf(stderr, "perf_pipeline: propagation_single bad result\n");
    return 1;
  }
  rows.push_back(StageRow{"propagation_single", 1, single_ms, 1.0, false});
  std::printf("%-12s serial %9.3f ms   (one engine call, no fan-out)\n",
              "propagation_single", single_ms);

  // --- propagation_batched: the batched lane-engine resolve alone --------
  // Every group resolved in one propagate_cached(requests) call: misses
  // sweep through the lane engine batch_width() origins at a time. No
  // path extraction, no merge -- the raw many-origin propagation cost
  // the collector and hegemony stages sit on top of.
  std::vector<sim::PropagationRequest> requests;
  requests.reserve(groups.size());
  for (const auto& group : groups) {
    requests.push_back(sim::PropagationRequest{group.origin, group.cls});
  }
  std::vector<sim::PropagationResultPtr> batched_serial, batched_parallel;
  util::set_thread_count(1);
  simulator.clear_cache();
  double batched_serial_ms =
      time_ms([&] { batched_serial = simulator.propagate_cached(requests); });
  util::set_thread_count(threads);
  simulator.clear_cache();
  double batched_parallel_ms = time_ms(
      [&] { batched_parallel = simulator.propagate_cached(requests); });
  for (size_t r = 0; r < requests.size(); ++r) {
    if (batched_serial[r] == nullptr || batched_parallel[r] == nullptr ||
        *batched_serial[r] != *batched_parallel[r]) {
      std::fprintf(stderr, "perf_pipeline: propagation_batched mismatch\n");
      return 1;
    }
  }
  record_stage("propagation_batched", batched_serial_ms, batched_parallel_ms);
  std::printf("batch width %zu lanes, %zu groups -> %zu sweeps\n",
              sim::batch_width(), groups.size(),
              (groups.size() + sim::batch_width() - 1) / sim::batch_width());

  // --- propagation: collector RIB fan-out --------------------------------
  // Runs against the memo the batched stage warmed -- in production every
  // stage shares one resolve, so this row measures the collector's own
  // work (path extraction, entry building, merge) plus cache lookups.
  // The cold resolve cost is the propagation_batched row above.
  bgp::Rib rib_serial, rib_parallel;
  util::set_thread_count(1);
  double prop_serial =
      time_ms([&] { rib_serial = collector.collect(announcements); });
  util::set_thread_count(threads);
  double prop_parallel =
      time_ms([&] { rib_parallel = collector.collect(announcements); });
  if (rib_serial.entry_count() != rib_parallel.entry_count()) {
    std::fprintf(stderr, "perf_pipeline: propagation mismatch (%zu vs %zu)\n",
                 rib_serial.entry_count(), rib_parallel.entry_count());
    return 1;
  }
  record_stage("propagation", prop_serial, prop_parallel);

  // --- rib_merge: sharded flat-RIB row build from group entries ----------
  // merge_group_entries consumes its entry sets (singleton groups are
  // moved into rows), so each timed run gets its own copy, made outside
  // the timer -- the stage measures the merge, not the setup.
  const std::vector<std::vector<bgp::RibEntry>> group_entries =
      collector.collect_group_entries(groups);
  std::vector<std::vector<bgp::RibEntry>> entries_run1 = group_entries;
  std::vector<std::vector<bgp::RibEntry>> entries_run2 = group_entries;
  std::vector<bgp::RibRow> merged_serial, merged_parallel;
  util::set_thread_count(1);
  double merge_serial = time_ms([&] {
    merged_serial = sim::merge_group_entries(groups, std::move(entries_run1));
  });
  util::set_thread_count(threads);
  double merge_parallel = time_ms([&] {
    merged_parallel = sim::merge_group_entries(groups, std::move(entries_run2));
  });
  if (merged_serial.size() != merged_parallel.size() ||
      merged_serial.size() != rib_serial.prefix_count()) {
    std::fprintf(stderr, "perf_pipeline: rib_merge mismatch\n");
    return 1;
  }
  record_stage("rib_merge", merge_serial, merge_parallel);

  // --- hegemony: IHR snapshot over (vantage, origin) path sets -----------
  // Runs against the cache the propagation stage warmed: the per-group
  // propagations are shared, so this stage measures path extraction +
  // hegemony scoring plus cache lookups, which is the production shape.
  const sim::PropagationCacheStats before_hegemony = simulator.cache_stats();
  ihr::IhrSnapshot snap_serial, snap_parallel;
  util::set_thread_count(1);
  double hege_serial = time_ms([&] {
    snap_serial =
        builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
  });
  util::set_thread_count(threads);
  double hege_parallel = time_ms([&] {
    snap_parallel =
        builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
  });
  if (snap_serial.transits.size() != snap_parallel.transits.size()) {
    std::fprintf(stderr, "perf_pipeline: hegemony mismatch (%zu vs %zu)\n",
                 snap_serial.transits.size(), snap_parallel.transits.size());
    return 1;
  }
  record_stage("hegemony", hege_serial, hege_parallel);
  const sim::PropagationCacheStats cache_stats = simulator.cache_stats();
  const uint64_t hegemony_hits = cache_stats.hits - before_hegemony.hits;
  std::printf("propagation cache: %llu hits (%llu during hegemony), "
              "%llu misses, %zu entries, %.1f MiB\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(hegemony_hits),
              static_cast<unsigned long long>(cache_stats.misses),
              cache_stats.entries,
              static_cast<double>(cache_stats.bytes) / (1024.0 * 1024.0));

  // --- mrt_decode: TABLE_DUMP_V2 whole-dump decode -----------------------
  std::ostringstream dump_stream;
  mrt::TableDumpWriter writer(dump_stream, /*timestamp=*/1651363200);
  writer.write_rib(rib_serial, "perf.pipeline");
  const std::string dump = dump_stream.str();
  std::printf("mrt dump: %zu bytes, %zu prefixes\n", dump.size(),
              rib_serial.prefix_count());

  // The timed path is the zero-copy span decode (frame-index scan +
  // in-place body parse), the same code read_rib_file runs against an
  // mmap'd dump -- no istream, no per-record body copies.
  const std::span<const uint8_t> dump_bytes = util::as_bytes(dump);
  bgp::Rib decoded_serial, decoded_parallel;
  util::set_thread_count(1);
  double mrt_serial = time_ms(
      [&] { decoded_serial = mrt::TableDumpReader::read_rib(dump_bytes); });
  util::set_thread_count(threads);
  double mrt_parallel = time_ms(
      [&] { decoded_parallel = mrt::TableDumpReader::read_rib(dump_bytes); });
  util::set_thread_count(0);
  if (decoded_serial.entry_count() != decoded_parallel.entry_count() ||
      decoded_serial.entry_count() != rib_serial.entry_count()) {
    std::fprintf(stderr, "perf_pipeline: mrt_decode mismatch\n");
    return 1;
  }
  record_stage("mrt_decode", mrt_serial, mrt_parallel);

  // --- bgp4mp_fold: BGP4MP update-stream fold into a live RIB ------------
  // The decoded RIB is re-expressed as a BGP4MP update stream (one
  // announce per entry, built outside the timer) and folded into an
  // empty RIB with the peer table pre-registered: the steady-state cost
  // of applying collector deltas. Serial only -- the fold is a stream,
  // order is its contract.
  std::ostringstream update_stream;
  mrt::Bgp4mpWriter update_writer(update_stream);
  const std::vector<mrt::Bgp4mpRecord> deltas =
      mrt::diff_ribs(bgp::Rib{}, decoded_serial, /*timestamp=*/1651363200);
  for (const auto& rec : deltas) update_writer.write(rec);
  const std::string updates = update_stream.str();
  std::printf("bgp4mp stream: %zu bytes, %zu updates\n", updates.size(),
              deltas.size());

  bgp::Rib folded;
  for (size_t p = 0; p < decoded_serial.peer_count(); ++p) {
    folded.add_peer(decoded_serial.peer_asn(static_cast<uint32_t>(p)));
  }
  util::set_thread_count(1);
  size_t folded_updates = 0;
  double fold_ms = time_ms([&] {
    mrt::UpdateStreamReader update_reader(util::as_bytes(updates));
    folded_updates = update_reader.fold_into(folded);
  });
  util::set_thread_count(0);
  if (folded_updates != deltas.size() ||
      folded.entry_count() != decoded_serial.entry_count()) {
    std::fprintf(stderr, "perf_pipeline: bgp4mp_fold mismatch\n");
    return 1;
  }
  rows.push_back(StageRow{"bgp4mp_fold", 1, fold_ms, 1.0, false});
  std::printf("%-12s serial %9.1f ms   (%.2f us/update, stream fold)\n",
              "bgp4mp_fold", fold_ms,
              deltas.empty() ? 0.0 : 1000.0 * fold_ms /
                                         static_cast<double>(deltas.size()));

  // --- snapshot_series: delta-aware temporal sweep vs cold rebuilds ------
  // The temporal snapshot engine advances the ecosystem day by day,
  // folding each EcosystemDelta in place and recomputing only what the
  // delta touched (classification, propagation cache entries, hegemony
  // views). The baseline is the honest alternative: rebuilding every
  // day's snapshot from scratch. Both run serial, so the speedup is
  // algorithmic, not parallelism. Every day of the incremental sweep is
  // checked byte-for-byte (digests over every emitted record field)
  // against the cold-rebuild oracle before timings are reported.
  int series_days = 64;
  if (const char* env = std::getenv("MANRS_SERIES_DAYS")) {
    auto parsed = util::parse_int<int>(env);
    series_days = parsed && *parsed >= 1 ? *parsed : 1;
  }
  util::set_thread_count(1);
  std::vector<benchx::DayOutputs> series_outputs;
  std::vector<benchx::DayEngineStats> series_stats;
  std::vector<double> series_day_ms;
  series_outputs.reserve(static_cast<size_t>(series_days));
  // Day-0 setup (classify + fold the base table) is charged to the
  // incremental side -- the cold baseline pays the equivalent inside
  // every rebuild.
  std::unique_ptr<benchx::SnapshotSeries> series_ptr;
  const double series_setup_ms = time_ms(
      [&] { series_ptr = std::make_unique<benchx::SnapshotSeries>(scenario); });
  benchx::SnapshotSeries& series = *series_ptr;
  double incremental_ms = time_ms([&] {
    for (int d = 1; d <= series_days; ++d) {
      series_day_ms.push_back(time_ms([&] { series.advance(); }));
      series_outputs.push_back(series.outputs());
      series_stats.push_back(series.last_stats());
    }
  });
  incremental_ms += series_setup_ms;
  double cold_ms = 0.0;
  for (int d = 1; d <= series_days; ++d) {
    benchx::DayOutputs cold;
    cold_ms += time_ms([&] { cold = series.cold_rebuild(d); });
    if (!(cold == series_outputs[static_cast<size_t>(d - 1)])) {
      std::fprintf(stderr,
                   "perf_pipeline: snapshot_series day %d diverges from the "
                   "cold-rebuild oracle\n",
                   d);
      return 1;
    }
  }
  util::set_thread_count(0);
  const double series_speedup =
      incremental_ms > 0.0 ? cold_ms / incremental_ms : 0.0;
  rows.push_back(
      StageRow{"snapshot_series", 1, incremental_ms, series_speedup, false});
  uint64_t series_hits = 0, series_misses = 0, series_invalidated = 0;
  for (const auto& st : series_stats) {
    series_hits += st.cache_hits;
    series_misses += st.cache_misses;
    series_invalidated += st.cache_invalidated;
  }
  std::printf("%-12s %d days incremental %9.1f ms   cold %9.1f ms   "
              "speedup %.2fx (serial, oracle-checked)\n",
              "snapshot_series", series_days, incremental_ms, cold_ms,
              series_speedup);
  std::printf("series cache: %llu hits, %llu misses, %llu invalidated "
              "across %d days\n",
              static_cast<unsigned long long>(series_hits),
              static_cast<unsigned long long>(series_misses),
              static_cast<unsigned long long>(series_invalidated),
              series_days);
  std::string series_json;
  {
    std::ostringstream sj;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"days\": %d, \"incremental_ms\": %.3f, "
                  "\"cold_ms\": %.3f, \"speedup\": %.3f,\n",
                  series_days, incremental_ms, cold_ms, series_speedup);
    sj << buf;
    sj << "        \"per_day\": [\n";
    for (size_t i = 0; i < series_stats.size(); ++i) {
      const benchx::DayEngineStats& st = series_stats[i];
      std::snprintf(
          buf, sizeof(buf),
          "          {\"day\": %d, \"wall_ms\": %.3f, \"hits\": %llu, "
          "\"misses\": %llu, \"invalidated\": %llu, \"reclassified\": %zu, "
          "\"groups_reused\": %zu}%s\n",
          st.day, series_day_ms[i], static_cast<unsigned long long>(st.cache_hits),
          static_cast<unsigned long long>(st.cache_misses),
          static_cast<unsigned long long>(st.cache_invalidated),
          st.reclassified, st.groups_reused,
          i + 1 < series_stats.size() ? "," : "");
      sj << buf;
    }
    sj << "        ]}";
    series_json = sj.str();
  }

  const sim::PathArenaStats arena_stats = sim::path_arena_stats();
  std::printf("path arena: %llu paths, %llu hops (%.1f%% shared)\n",
              static_cast<unsigned long long>(arena_stats.paths),
              static_cast<unsigned long long>(arena_stats.hops),
              arena_stats.hops > 0
                  ? 100.0 * static_cast<double>(arena_stats.shared_hops) /
                        static_cast<double>(arena_stats.hops)
                  : 0.0);

  write_json(json_path, run_json(scale, threads, cache_stats, hegemony_hits,
                                 arena_stats, series_json, rows));
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
