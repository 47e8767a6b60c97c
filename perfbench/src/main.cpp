// manrs_perfbench: the repository's end-to-end benchmark program.
//
//   manrs_perfbench --workload snapshot|series|ingest [--seed 22]
//                   [--scenario-seed 22] [--evolution-seed 2022]
//                   [--seconds 10] [--verify 0|1]
//                   [--trace 0|1] [--trace-out FILE]
//
// Untraced (--trace 0): sets the named workload up once (setup_s), runs
// timed ops in whole rounds until --seconds of wall time have passed (at
// least kMinOps), checks every op, and prints setup_s, op_p50_ms,
// ops_per_s and peak_rss_mb. Set-up and ops are timed in CPU time (Clock
// in trace.h); the set-up's includes that of the children it waited for.
// --verify 0 skips the once-per-process checks (verify_setup,
// final_checks) and keeps the per-op ones, for processes whose inputs
// another process has verified.
// The line before the result holds the samples behind those metrics
// ({"samples": {...}}), which perfbench/run.py pools over processes.
//
// Traced (--trace 1): runs every workload in turn, each for a third of
// --seconds, with a span around each public call and the layer probes
// after each op, and prints the per-layer metrics; --trace-out receives
// the spans and counters.
//
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// --workload ingest --prepare DIR is the ingest set-up's child process:
// it writes the workload's inputs into DIR and prints nothing to stdout.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/strings.h"
#include "workload.h"

namespace {

using namespace perfbench;

constexpr size_t kMinOps = 3;

struct Args {
  std::string workload;
  Seeds seeds;
  double seconds = 10.0;
  bool verify = true;
  bool trace = false;
  std::string trace_out;
  std::string prepare;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

using Factory = std::unique_ptr<Workload> (*)(const Seeds&);

Factory factory_of(const std::string& name) {
  if (name == "snapshot") return make_snapshot;
  if (name == "series") return make_series;
  if (name == "ingest") return make_ingest;
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: manrs_perfbench --workload snapshot|series|ingest "
               "[--seed N] [--scenario-seed N] [--evolution-seed N] "
               "[--seconds S] [--verify 0|1] [--trace 0|1] "
               "[--trace-out FILE] [--prepare DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed" || key == "--scenario-seed" ||
               key == "--evolution-seed") {
      const auto seed = manrs::util::parse_uint<uint64_t>(value);
      if (!seed) return false;
      (key == "--seed"            ? args->seeds.workload
       : key == "--scenario-seed" ? args->seeds.scenario
                                  : args->seeds.evolution) = *seed;
    } else if (key == "--seconds") {
      char* end = nullptr;
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace" || key == "--verify") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      (key == "--trace" ? args->trace : args->verify) = value[0] == '1';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--prepare") {
      args->prepare = value;
    } else {
      return false;
    }
  }
  if (!args->prepare.empty()) {
    return argc % 2 == 1 && args->workload == "ingest";
  }
  return argc % 2 == 1 && (args->trace || factory_of(args->workload));
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, size_t attempted, size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name +
           "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Timed ops in whole rounds until `seconds` of wall time have passed (at
// least `min_ops`), each checked as it completes; then the workload's
// post-run checks.
struct Loop {
  std::vector<double> op_ms;
  std::vector<bool> ok;
  double peak_rss_mb = 0.0;
};

Loop run_ops(Workload& w, double seconds, size_t min_ops, bool verify,
             Tracer* tracer, int* next_op) {
  using Wall = std::chrono::steady_clock;
  Loop loop;
  const Wall::time_point start = Wall::now();
  const size_t round = w.round_ops();
  while (loop.op_ms.size() < min_ops || loop.op_ms.size() % round != 0 ||
         ms_between(start, Wall::now()) < 1000.0 * seconds) {
    if (tracer != nullptr) tracer->set_op((*next_op)++);
    const Wall::time_point wall0 = Wall::now();
    loop.op_ms.push_back(w.op(tracer));
    const double wall_ms = ms_between(wall0, Wall::now());
    loop.ok.push_back(w.last_op_ok());
    if (tracer != nullptr) w.probe(tracer);
    std::fprintf(stderr,
                 "op %zu: %.3f ms CPU (%.3f ms wall, with checks), "
                 "peak RSS %.0f MB%s\n",
                 loop.op_ms.size(), loop.op_ms.back(), wall_ms, peak_rss_mb(),
                 loop.ok.back() ? "" : " FAILED");
  }
  if (tracer != nullptr) tracer->set_op(-1);
  loop.peak_rss_mb = peak_rss_mb();
  if (verify) {
    const std::vector<bool> final = w.final_checks(loop.op_ms.size());
    for (size_t i = 0; i < loop.ok.size(); ++i) {
      loop.ok[i] = loop.ok[i] && final[i];
    }
  }
  return loop;
}

// CPU seconds (user + system) of the children this process has waited
// for: the ingest set-up's child.
double children_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int run_untraced(const Args& args) {
  const Clock::time_point t0 = Clock::now();
  const double children0 = children_cpu_s();
  const std::unique_ptr<Workload> w = factory_of(args.workload)(args.seeds);
  w->setup(nullptr);
  const double setup_s = ms_between(t0, Clock::now()) / 1000.0 +
                         (children_cpu_s() - children0);
  std::fprintf(stderr, "setup: %.3f s\n", setup_s);
  const bool setup_ok = !args.verify || w->verify_setup();
  std::fprintf(stderr, "%s\n", w->describe().c_str());

  int next_op = 0;
  const Loop loop =
      run_ops(*w, args.seconds, kMinOps, args.verify, nullptr, &next_op);
  const size_t failed = static_cast<size_t>(
      std::count(loop.ok.begin(), loop.ok.end(), false));
  double total_ms = 0.0;
  std::string samples =
      "{\"samples\": {\"setup_s\": " + json_number(setup_s) + ", \"op_ms\": [";
  for (size_t i = 0; i < loop.op_ms.size(); ++i) {
    total_ms += loop.op_ms[i];
    samples += (i ? ", " : "") + json_number(loop.op_ms[i]);
  }
  samples += "], \"peak_rss_mb\": " + json_number(loop.peak_rss_mb) + "}}";
  std::printf("%s\n", samples.c_str());
  print_result(setup_ok && failed == 0, loop.op_ms.size(), failed,
               {{"setup_s", "s", setup_s},
                {"op_p50_ms", "ms", median(loop.op_ms)},
                {"ops_per_s", "1/s",
                 static_cast<double>(loop.op_ms.size()) / (total_ms / 1000.0)},
                {"peak_rss_mb", "MB", loop.peak_rss_mb}});
  return 0;
}

int run_traced(const Args& args) {
  Tracer tracer;
  int next_op = 0;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<Metric> trace_metrics;
  for (const char* name : {"snapshot", "series", "ingest"}) {
    std::unique_ptr<Workload> w = factory_of(name)(args.seeds);
    w->setup(&tracer);
    correct = w->verify_setup() && correct;
    std::fprintf(stderr, "%s\n", w->describe().c_str());
    const Loop loop =
        run_ops(*w, args.seconds / 3.0, 2, true, &tracer, &next_op);
    attempted += loop.op_ms.size();
    const size_t f = static_cast<size_t>(
        std::count(loop.ok.begin(), loop.ok.end(), false));
    failed += f;
    correct = correct && f == 0;
    const std::string prefix = std::string("trace.") + name;
    trace_metrics.push_back({prefix + ".op_ms", "ms", median(loop.op_ms)});
    trace_metrics.push_back(
        {prefix + ".span_cover", "ratio",
         median(tracer.child_cover(std::string(name) + ".op"))});
  }

  auto set_up = [&](const char* span) { return median(tracer.durations(span)); };
  auto per_op = [&](const char* span) { return median(tracer.op_sums(span)); };
  auto value = [&](const char* counter) {
    return median(tracer.values(counter));
  };
  std::vector<Metric> metrics = {
      {"topogen.build_scenario_ms", "ms", set_up("topogen.build_scenario")},
      {"topogen.begin_day_ms", "ms", per_op("topogen.begin_day")},
      {"topogen.delta_ops", "count", value("topogen.delta_ops")},
      {"simulator.make_sim_ms", "ms", set_up("simulator.make_sim")},
      {"simulator.resolve_cold_ms", "ms", per_op("simulator.resolve_cold")},
      {"simulator.sweeps", "count", value("simulator.sweeps")},
      {"simulator.requests", "count", value("simulator.requests")},
      {"simulator.resolve_warm_ms", "ms", per_op("simulator.resolve_warm")},
      {"simulator.cache_entries", "count", value("simulator.cache_entries")},
      {"simulator.cache_mb", "MB", value("simulator.cache_mb")},
      {"simulator.cache_hit_ratio", "ratio", value("simulator.cache_hit_ratio")},
      {"simulator.cache_lookups", "count", value("simulator.cache_lookups")},
      {"simulator.cache_invalidated", "count",
       value("simulator.cache_invalidated")},
      {"simulator.collect_ms", "ms", value("simulator.collect_ms")},
      {"rpki.validate_ms", "ms", per_op("rpki.validate")},
      {"rpki.validate_calls", "count", value("rpki.validate_calls")},
      {"irr.validate_ms", "ms", per_op("irr.validate")},
      {"irr.validate_calls", "count", value("irr.validate_calls")},
      {"ihr.build_ms", "ms", per_op("ihr.build")},
      {"ihr.build_warm_ms", "ms", per_op("ihr.build_warm")},
      {"ihr.arena_shared_ratio", "ratio", value("ihr.arena_shared_ratio")},
      {"ihr.arena_hops", "count", value("ihr.arena_hops")},
      {"ihr.transit_records", "count", value("ihr.transit_records")},
      {"core.formulas_ms", "ms", per_op("core.formulas")},
      {"series.apply_ms", "ms", per_op("series.apply")},
      {"series.apply_batch_ms", "ms", per_op("series.apply_batch")},
      {"series.recompute_ms", "ms", per_op("series.recompute")},
      {"series.reclassified", "count", value("series.reclassified")},
      {"series.groups_reused_ratio", "ratio",
       value("series.groups_reused_ratio")},
      {"series.groups", "count", value("series.groups")},
      {"mrt.scan_frames_ms", "ms", per_op("mrt.scan_frames")},
      {"mrt.decode_ms", "ms", per_op("mrt.decode")},
      {"mrt.decode_mb_per_s", "MB/s", value("mrt.decode_mb_per_s")},
      {"mrt.fold_ms", "ms", per_op("mrt.fold")},
      {"mrt.fold_updates_per_s", "1/s", value("mrt.fold_updates_per_s")},
      {"mrt.records", "count", value("mrt.records")},
      {"mrt.updates", "count", value("mrt.updates")},
      {"bgp.entries", "count", value("bgp.entries")},
  };
  metrics.insert(metrics.end(), trace_metrics.begin(), trace_metrics.end());
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "traced run recorded no %s\n", m.name.c_str());
      return 1;
    }
  }
  if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  manrs::util::set_thread_count(kPoolWidth);
  if (!args.prepare.empty()) return prepare_ingest(args.seeds, args.prepare);
  return args.trace ? run_traced(args) : run_untraced(args);
}
