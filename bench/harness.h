// Shared harness for the per-figure/per-table reproduction benches.
//
// Every bench builds the same paper-scale scenario (override with the
// MANRS_SCALE environment variable: "tiny", "default", "large", or
// "full") and
// prints its figure or table as plain text, with the paper's published
// value alongside where one exists. EXPERIMENTS.md collects the output.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.h"
#include "core/conformance.h"
#include "ihr/dataset.h"
#include "netbase/prefix_trie.h"
#include "simulator/propagation.h"
#include "topogen/evolution.h"
#include "topogen/scenario.h"
#include "util/stats.h"

namespace manrs::benchx {

/// Scenario selected by MANRS_SCALE (default: paper_default).
topogen::ScenarioConfig config_from_env();

/// The full pipeline: scenario + simulator + IHR snapshot. Construction
/// cost is dominated by propagation, so benches that only need
/// classification should call ihr::classify instead.
struct Pipeline {
  topogen::Scenario scenario;
  sim::PropagationSim simulator;
  ihr::IhrSnapshot snapshot;
  std::unordered_map<uint32_t, core::OriginationStats> origination;
  std::unordered_map<uint32_t, core::PropagationStats> propagation;

  static Pipeline build();
  static Pipeline build(const topogen::ScenarioConfig& config);
};

/// One day's full measurement output from the temporal snapshot engine:
/// the per-day points of the Fig 2 / Fig 6 / Fig 9 series, the
/// conformance aggregates, and FNV-1a digests over the binary record
/// streams -- the byte-identity keys the cold-rebuild oracle compares.
struct DayOutputs {
  int day = 0;

  // Fig 2 series: ecosystem size.
  size_t participants = 0;
  size_t member_ases = 0;

  // Fig 6 series: RPKI saturation by membership (% of routed v4 space).
  double rsat_manrs = 0.0;
  double rsat_non_manrs = 0.0;

  // Fig 9 series: mean preference score, RPKI-Valid vs everything else.
  double preference_valid_mean = 0.0;
  double preference_other_mean = 0.0;

  // Conformance aggregates over the day's announcements.
  size_t announcements = 0;
  size_t conformant = 0;
  size_t unconformant = 0;
  size_t transit_records = 0;

  // Digests over the prefix-origin dataset, the transit dataset, and the
  // preference scores (every field of every record, in emit order).
  uint64_t prefix_origin_digest = 0;
  uint64_t transit_digest = 0;
  uint64_t preference_digest = 0;

  friend bool operator==(const DayOutputs&, const DayOutputs&) = default;
};

/// Per-day accounting of how much work the incremental engine skipped.
struct DayEngineStats {
  int day = 0;
  size_t delta_ops = 0;      // size of the day's EcosystemDelta
  size_t reclassified = 0;   // announcements re-run through the validators
  size_t groups = 0;         // (origin, class) propagation groups today
  size_t groups_reused = 0;  // hegemony views served by ihr::HegemonyMemo
  uint64_t cache_hits = 0;   // propagation-cache counters, this day only
  uint64_t cache_misses = 0;
  uint64_t cache_invalidated = 0;
};

/// The temporal snapshot engine: sweeps an EcosystemEvolution day by day,
/// folding each EcosystemDelta into live state (staged Rib / VrpStore /
/// IrrDatabase deltas, PropagationSim::apply_delta) and recomputing the
/// day's outputs incrementally -- only announcements whose covering
/// ROA/IRR records changed are reclassified, and IhrSnapshotBuilder::build
/// reuses a group's hegemony view (ihr::HegemonyMemo) whenever the group's
/// propagation result survived the day's cache invalidation.
///
/// Day protocol (statically checked by the series-delta typestate rule):
/// begin_day() produces the next day's delta, which must be apply()-ed
/// exactly once before recompute(); advance() runs the full cycle.
/// cold_rebuild(k) independently rebuilds day k from scratch -- the
/// oracle recompute() must match digest-for-digest.
class SnapshotSeries {
 public:
  /// `base` must outlive the series. Day 0 is the base snapshot.
  explicit SnapshotSeries(const topogen::Scenario& base,
                          topogen::EvolutionConfig config = {});

  int day() const { return day_; }
  const topogen::EcosystemEvolution& evolution() const { return evolution_; }
  const sim::PropagationSim& simulator() const { return sim_; }

  /// The delta that advances the series to day()+1.
  topogen::EcosystemDelta begin_day();

  /// Fold a delta produced by begin_day() into the live state.
  void apply(const topogen::EcosystemDelta& delta);

  /// Recompute the current day's outputs incrementally.
  const DayOutputs& recompute();

  /// begin_day() + apply() + recompute().
  const DayOutputs& advance();

  /// Rebuild day `k` from scratch (fresh registries, fresh simulator, no
  /// memo): the byte-identity oracle and the 64-cold-builds baseline.
  DayOutputs cold_rebuild(int k) const;

  const DayOutputs& outputs() const { return outputs_; }
  const DayEngineStats& last_stats() const { return stats_; }

 private:
  uint32_t peer_of(net::Asn origin);

  const topogen::Scenario* base_;
  topogen::EcosystemEvolution evolution_;
  int day_ = 0;

  bgp::Rib rib_;  // the live announcement table (one peer per origin)
  std::unordered_map<uint32_t, uint32_t> origin_peer_;
  rpki::VrpStore vrps_;
  irr::IrrRegistry irr_;
  core::ManrsRegistry registry_;
  sim::PropagationSim sim_;

  std::unordered_map<bgp::PrefixOrigin, ihr::PrefixOriginRecord>
      classifications_;
  net::PrefixTrie<bgp::PrefixOrigin> announcement_index_;
  ihr::HegemonyMemo hegemony_memo_;

  uint64_t baseline_hits_ = 0;
  uint64_t baseline_misses_ = 0;
  DayOutputs outputs_;
  DayEngineStats stats_;
};

/// Group key for the six Fig 5/7/8 populations.
struct GroupKey {
  astopo::SizeClass size;
  bool manrs;
};

std::string group_label(const GroupKey& key, size_t n);

/// Print helpers.
void print_title(const std::string& bench, const std::string& artifact);
void print_section(const std::string& name);
/// One CDF as rows "x  F(x)" on a fixed grid plus summary quantiles.
void print_cdf(const std::string& label,
               const util::EmpiricalDistribution& dist, double lo, double hi,
               size_t points = 11);
/// "measured X (paper: Y)" line.
void print_vs_paper(const std::string& what, const std::string& measured,
                    const std::string& paper);

/// When the MANRS_PLOT_DIR environment variable is set, write the full
/// empirical CDF of `dist` as a gnuplot-ready two-column step file
/// `<dir>/<bench>.<series>.dat` (x, F(x)); see plots/plot_all.gp. No-op
/// otherwise.
void export_cdf(const std::string& bench, const std::string& series,
                const util::EmpiricalDistribution& dist);

}  // namespace manrs::benchx
