#include "harness.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/parallel.h"

namespace manrs::benchx {

topogen::ScenarioConfig config_from_env() {
  const char* scale = std::getenv("MANRS_SCALE");
  if (scale != nullptr) {
    if (std::strcmp(scale, "tiny") == 0) {
      return topogen::ScenarioConfig::tiny();
    }
    if (std::strcmp(scale, "large") == 0) {
      return topogen::ScenarioConfig::large_scale();
    }
    if (std::strcmp(scale, "full") == 0) {
      return topogen::ScenarioConfig::full_scale();
    }
  }
  return topogen::ScenarioConfig::paper_default();
}

Pipeline Pipeline::build() { return build(config_from_env()); }

Pipeline Pipeline::build(const topogen::ScenarioConfig& config) {
  // One-line stage timing on stderr (util::logging) so bench-runtime
  // regressions show up in any bench run, not only in perf_pipeline.
  using Clock = std::chrono::steady_clock;
  auto elapsed_ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a)
        .count();
  };
  Clock::time_point t0 = Clock::now();
  topogen::Scenario scenario = topogen::build_scenario(config);
  Clock::time_point t1 = Clock::now();
  sim::PropagationSim simulator = scenario.make_sim();
  Clock::time_point t2 = Clock::now();
  ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
  ihr::IhrSnapshot snapshot =
      builder.build(scenario.announcements(), scenario.vrps, scenario.irr);
  Clock::time_point t3 = Clock::now();
  util::log_info() << "Pipeline::build: scenario " << elapsed_ms(t0, t1)
                   << " ms, propagation-sim " << elapsed_ms(t1, t2)
                   << " ms, snapshot " << elapsed_ms(t2, t3) << " ms ("
                   << scenario.config.total_as_count() << " ASes, "
                   << util::thread_count() << " threads)";
  Pipeline pipeline{std::move(scenario), std::move(simulator),
                    std::move(snapshot), {}, {}};
  pipeline.origination =
      core::compute_origination_stats(pipeline.snapshot.prefix_origins);
  pipeline.propagation =
      core::compute_propagation_stats(pipeline.snapshot.transits);
  return pipeline;
}

std::string group_label(const GroupKey& key, size_t n) {
  std::string label(astopo::to_string(key.size));
  label += key.manrs ? " MANRS" : " non-MANRS";
  label += " (" + std::to_string(n) + ")";
  return label;
}

void print_title(const std::string& bench, const std::string& artifact) {
  std::printf("================================================================\n");
  std::printf("%s -- reproduces %s\n", bench.c_str(), artifact.c_str());
  std::printf("================================================================\n");
}

void print_section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

void print_cdf(const std::string& label,
               const util::EmpiricalDistribution& dist, double lo, double hi,
               size_t points) {
  if (dist.empty()) {
    std::printf("%s: (no samples)\n", label.c_str());
    return;
  }
  std::printf("%s\n", label.c_str());
  std::printf("  x:   ");
  for (const auto& [x, _] : dist.cdf_series(lo, hi, points)) {
    std::printf("%8.2f", x);
  }
  std::printf("\n  CDF: ");
  for (const auto& [_, f] : dist.cdf_series(lo, hi, points)) {
    std::printf("%8.3f", f);
  }
  std::printf("\n  median %.2f  p90 %.2f  max %.2f  mass@%g %.1f%%\n",
              dist.median(), dist.quantile(0.9), dist.max(), hi,
              100.0 * dist.mass_at(hi));
}

void print_vs_paper(const std::string& what, const std::string& measured,
                    const std::string& paper) {
  std::printf("%-58s measured %-14s paper %s\n", what.c_str(),
              measured.c_str(), paper.c_str());
}

void export_cdf(const std::string& bench, const std::string& series,
                const util::EmpiricalDistribution& dist) {
  const char* dir = std::getenv("MANRS_PLOT_DIR");
  if (dir == nullptr || dist.empty()) return;
  // Sanitize the series name into a filename fragment.
  std::string name;
  for (char c : series) {
    name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  std::string path = std::string(dir) + "/" + bench + "." + name + ".dat";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "export_cdf: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "# %s -- %s (empirical CDF, %zu samples)\n",
               bench.c_str(), series.c_str(), dist.size());
  const auto& samples = dist.sorted_samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    // Step function: one point per sample at F = (i+1)/n; skip duplicate
    // x values except the last occurrence to keep files small.
    if (i + 1 < samples.size() && samples[i + 1] == samples[i]) continue;
    std::fprintf(file, "%.6f %.6f\n", samples[i],
                 static_cast<double>(i + 1) /
                     static_cast<double>(samples.size()));
  }
  std::fclose(file);
}

}  // namespace manrs::benchx
