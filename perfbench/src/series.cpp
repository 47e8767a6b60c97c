// series: the daily measurement service.
//
// SnapshotSeries is built and its cold first day computed in set-up,
// followed by one untimed warm-up day. Each op is then one advance(): the
// next day's delta, folded in and recomputed. A run covers whole rounds of
// two weeks, so every run holds the same share of weekly membership-batch
// days (days == 1 mod 7). It runs the simulator/ihr/rpki/irr code the opposite way
// to snapshot: on cache hits, apply_delta migration, memoized hegemony
// views and reclassification of only the touched announcements.
#include <cstdio>
#include <map>
#include <memory>

#include "harness.h"
#include "topogen/scenario.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace manrs;

constexpr int kWeek = 7;
// Day costs differ by up to 10x (about 280 to 3,100 ms), so each process
// must time the same days: a round is two weeks, days 2 to 15 in the first
// round, which takes longer than a process's share of the run on the
// reference host.
constexpr size_t kRound = 2 * kWeek;

class Series final : public Workload {
 public:
  explicit Series(const Seeds& seeds) : seeds_(seeds) {}

  void setup(Tracer* tracer) override {
    topogen::ScenarioConfig config = topogen::ScenarioConfig::paper_default();
    config.seed = seeds_.scenario;
    {
      Span span(tracer, "topogen.build_scenario");
      scenario_ = topogen::build_scenario(config);
    }
    topogen::EvolutionConfig evolution;
    evolution.seed = seeds_.evolution;
    {
      Span span(tracer, "series.construct");
      series_ = std::make_unique<benchx::SnapshotSeries>(scenario_, evolution);
    }
    {
      Span span(tracer, "series.cold_day");
      series_->recompute();  // day 0 against an empty propagation cache
    }
    series_->advance();  // warm-up: day 1, a membership-batch day
    first_day_ = series_->day() + 1;
  }

  bool verify_setup() override { return true; }

  double op(Tracer* tracer) override {
    const Clock::time_point t0 = Clock::now();
    {
      Span op_span(tracer, "series.op");
      if (tracer == nullptr) {
        series_->advance();
      } else {
        topogen::EcosystemDelta delta;
        {
          Span span(tracer, "topogen.begin_day");
          delta = series_->begin_day();
        }
        {
          Span span(tracer, series_->day() % kWeek == 0 ? "series.apply_batch"
                                                        : "series.apply");
          series_->apply(delta);
        }
        Span span(tracer, "series.recompute");
        series_->recompute();
      }
    }
    const double ms = ms_between(t0, Clock::now());
    outputs_.emplace(series_->day(), series_->outputs());
    if (tracer != nullptr) {
      const benchx::DayEngineStats& st = series_->last_stats();
      const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
      count(tracer, "topogen.delta_ops", static_cast<double>(st.delta_ops));
      count(tracer, "series.reclassified", static_cast<double>(st.reclassified));
      count(tracer, "series.groups", static_cast<double>(st.groups));
      count(tracer, "series.groups_reused_ratio",
            st.groups ? static_cast<double>(st.groups_reused) /
                            static_cast<double>(st.groups)
                      : 0.0);
      count(tracer, "simulator.cache_lookups", lookups);
      count(tracer, "simulator.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(st.cache_hits) / lookups : 0.0);
      count(tracer, "simulator.cache_invalidated",
            static_cast<double>(st.cache_invalidated));
    }
    return ms;
  }

  // Each day's outputs are checked against cold_rebuild after the run.
  bool last_op_ok() const override { return true; }

  size_t round_ops() const override { return kRound; }

  // Two sampled days of the run, one of them a membership-batch day, must
  // equal SnapshotSeries::cold_rebuild (fresh registries, simulator and
  // memo) digest for digest.
  std::vector<bool> final_checks(size_t ops) override {
    std::vector<bool> ok(ops, true);
    if (ops < static_cast<size_t>(kWeek)) return ok;
    util::Rng rng(seeds_.workload ^ 0xda75);
    const uint64_t weeks = ops / kWeek;
    const int offset = ((1 - first_day_) % kWeek + kWeek) % kWeek;
    const int batch = first_day_ + kWeek * static_cast<int>(rng.uniform(weeks)) +
                      offset;
    const int other = first_day_ + kWeek * static_cast<int>(rng.uniform(weeks)) +
                      (offset + 1 + static_cast<int>(rng.uniform(kWeek - 1))) %
                          kWeek;
    for (const int day : {batch, other}) {
      if (series_->cold_rebuild(day) == outputs_.at(day)) continue;
      std::fprintf(stderr, "series: day %d differs from cold_rebuild\n", day);
      ok[static_cast<size_t>(day - first_day_)] = false;
    }
    return ok;
  }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "series: %zu announcements and %zu participants on day %d; "
                  "timed days start at day %d",
                  series_->outputs().announcements,
                  series_->outputs().participants, series_->day(), first_day_);
    return buf;
  }

 private:
  Seeds seeds_;
  topogen::Scenario scenario_;
  std::unique_ptr<benchx::SnapshotSeries> series_;
  int first_day_ = 0;
  std::map<int, benchx::DayOutputs> outputs_;
};

}  // namespace

std::unique_ptr<Workload> make_series(const Seeds& seeds) {
  return std::make_unique<Series>(seeds);
}

}  // namespace perfbench
