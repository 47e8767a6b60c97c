// snapshot: one cold paper snapshot per op.
//
// The op clears the propagation cache, runs IhrSnapshotBuilder::build
// (classify, batched resolve, path extraction, hegemony, emit) and then
// Formulas 1-9 over its output. It is the one-shot path behind every
// figure: nearly all of its time is in the simulator and ihr, and it never
// touches mrt or the ecosystem evolution.
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/conformance.h"
#include "ihr/dataset.h"
#include "simulator/collector.h"
#include "topogen/scenario.h"
#include "util/det_hash.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace manrs;

constexpr size_t kRouteSample = 400;  // records checked by naive RFC 6811/IRR
constexpr size_t kPathSample = 120;   // records whose vantage paths are checked

uint64_t fold_double(uint64_t h, double v) {
  return util::fnv1a_u64(h, std::bit_cast<uint64_t>(v));
}

sim::AnnouncementClass class_of(const net::Prefix& prefix,
                                rpki::RpkiStatus rpki, irr::IrrStatus irr) {
  sim::AnnouncementClass cls;
  cls.rpki_invalid = rpki::is_invalid(rpki);
  cls.irr_invalid = irr == irr::IrrStatus::kInvalidAsn;
  cls.variant = (cls.rpki_invalid || cls.irr_invalid)
                    ? sim::filter_variant(prefix)
                    : 0;
  return cls;
}

class Snapshot final : public Workload {
 public:
  explicit Snapshot(const Seeds& seeds) : seeds_(seeds) {}

  void setup(Tracer* tracer) override {
    topogen::ScenarioConfig config = topogen::ScenarioConfig::paper_default();
    config.seed = seeds_.scenario;
    {
      Span span(tracer, "topogen.build_scenario");
      scenario_ = topogen::build_scenario(config);
    }
    {
      Span span(tracer, "simulator.make_sim");
      sim_ = std::make_unique<sim::PropagationSim>(scenario_.make_sim());
    }
    announcements_ = scenario_.announcements();
    builder_ = std::make_unique<ihr::IhrSnapshotBuilder>(
        *sim_, scenario_.vantage_points);
    op(nullptr);  // warm-up: lazy masks, workspaces, heap growth
    reference_ = digest_;
  }

  bool verify_setup() override {
    const bool routes = check_routes();
    const bool paths = check_paths();
    const bool bounds = check_bounds();
    // The cache holds pure function values: with it off, the op must
    // give the same snapshot and the same formulas, bit for bit.
    sim_->set_cache_enabled(false);
    op(nullptr);
    sim_->set_cache_enabled(true);
    const bool cache_off = digest_ == reference_;
    if (!cache_off) std::fprintf(stderr, "snapshot: cache-off digest differs\n");
    setup_ok_ = routes && paths && bounds && cache_off;
    return setup_ok_;
  }

  double op(Tracer* tracer) override {
    snapshot_ = {};
    origination_.clear();
    propagation_.clear();
    const sim::PathArenaStats arena_before = sim::path_arena_stats();
    const Clock::time_point t0 = Clock::now();
    {
      Span op_span(tracer, "snapshot.op");
      {
        Span span(tracer, "simulator.clear_cache");
        sim_->clear_cache();
      }
      {
        Span span(tracer, "ihr.build");
        snapshot_ = builder_->build(announcements_, scenario_.vrps,
                                    scenario_.irr);
      }
      Span span(tracer, "core.formulas");
      formulas(tracer);
    }
    const double ms = ms_between(t0, Clock::now());
    if (tracer != nullptr) {
      const sim::PathArenaStats arena = sim::path_arena_stats();
      const double hops = static_cast<double>(arena.hops - arena_before.hops);
      const double shared =
          static_cast<double>(arena.shared_hops - arena_before.shared_hops);
      count(tracer, "ihr.arena_hops", hops);
      count(tracer, "ihr.arena_shared_ratio", hops > 0 ? shared / hops : 0.0);
      count(tracer, "ihr.transit_records",
            static_cast<double>(snapshot_.transits.size()));
      const sim::PropagationCacheStats cache = sim_->cache_stats();
      count(tracer, "simulator.cache_entries",
            static_cast<double>(cache.entries));
      count(tracer, "simulator.cache_mb",
            static_cast<double>(cache.bytes) / (1024.0 * 1024.0));
    }
    digest_ = digest();
    last_ok_ = setup_ok_ && digest_ == reference_;
    return ms;
  }

  bool last_op_ok() const override { return last_ok_; }

  void probe(Tracer* tracer) override {
    Span probe_span(tracer, "snapshot.probe");
    const size_t n = announcements_.size();
    std::vector<rpki::RpkiStatus> rpki(n);
    std::vector<irr::IrrStatus> irr(n);
    {
      Span span(tracer, "rpki.validate");
      for (size_t i = 0; i < n; ++i) {
        rpki[i] = scenario_.vrps.validate(announcements_[i].prefix,
                                          announcements_[i].origin);
      }
    }
    {
      Span span(tracer, "irr.validate");
      for (size_t i = 0; i < n; ++i) {
        irr[i] = irr::validate_route(scenario_.irr, announcements_[i].prefix,
                                     announcements_[i].origin);
      }
    }
    count(tracer, "rpki.validate_calls", static_cast<double>(n));
    count(tracer, "irr.validate_calls", static_cast<double>(n));

    std::vector<sim::Announcement> classified;
    classified.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      classified.push_back(sim::Announcement{
          announcements_[i].prefix, announcements_[i].origin,
          class_of(announcements_[i].prefix, rpki[i], irr[i])});
    }
    std::vector<sim::PropagationRequest> requests;
    for (const sim::AnnouncementGroup& g :
         sim::group_announcements(classified)) {
      requests.push_back(sim::PropagationRequest{g.origin, g.cls});
    }
    count(tracer, "simulator.requests", static_cast<double>(requests.size()));

    sim_->clear_cache();
    const uint64_t misses_before = sim_->cache_stats().misses;
    {
      Span span(tracer, "simulator.resolve_cold");
      (void)sim_->propagate_cached(requests);
    }
    const double misses =
        static_cast<double>(sim_->cache_stats().misses - misses_before);
    const double width = static_cast<double>(sim::batch_width());
    count(tracer, "simulator.sweeps", std::ceil(misses / width));
    {
      Span span(tracer, "simulator.resolve_warm");
      (void)sim_->propagate_cached(requests);
    }
    Span span(tracer, "ihr.build_warm");
    (void)builder_->build(announcements_, scenario_.vrps, scenario_.irr);
  }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "snapshot: %zu ASes, %zu announcements, %zu vantages, %zu "
                  "VRPs, %zu IRR routes, %zu transit records",
                  scenario_.graph.as_count(), announcements_.size(),
                  scenario_.vantage_points.size(), scenario_.vrps.size(),
                  scenario_.irr.total_routes(), snapshot_.transits.size());
    return buf;
  }

 private:
  struct Verdicts {
    core::Action4Verdict action4;
    core::Action1Verdict action1;
  };

  void formulas(Tracer* tracer) {
    {
      Span span(tracer, "core.origination_stats");
      origination_ = core::compute_origination_stats(snapshot_.prefix_origins);
    }
    {
      Span span(tracer, "core.propagation_stats");
      propagation_ = core::compute_propagation_stats(snapshot_.transits);
    }
    {
      Span span(tracer, "core.actions");
      verdicts_.clear();
      for (const core::Participant& p : scenario_.manrs.participants()) {
        for (net::Asn asn : p.registered_ases) {
          const auto og = origination_.find(asn.value());
          const auto pg = propagation_.find(asn.value());
          verdicts_.push_back(Verdicts{
              core::check_action4(og == origination_.end() ? nullptr
                                                           : &og->second,
                                  p.program),
              core::check_action1(pg == propagation_.end() ? nullptr
                                                           : &pg->second)});
        }
      }
    }
    {
      Span span(tracer, "core.saturation");
      saturation_ = core::compute_rpki_saturation(announcements_,
                                                  scenario_.vrps,
                                                  scenario_.manrs);
    }
    Span span(tracer, "core.preference");
    preference_ =
        core::compute_preference_scores(snapshot_.transits, scenario_.manrs);
  }

  uint64_t digest() const {
    uint64_t h = util::kFnv1aOffset;
    for (const ihr::PrefixOriginRecord& r : snapshot_.prefix_origins) {
      h = fold_prefix(h, r.prefix);
      h = util::fnv1a_u64(h, r.origin.value());
      h = util::fnv1a_byte(h, static_cast<uint8_t>(r.rpki));
      h = util::fnv1a_byte(h, static_cast<uint8_t>(r.irr));
      h = util::fnv1a_u64(h, r.visibility);
    }
    for (const ihr::TransitRecord& t : snapshot_.transits) {
      h = fold_prefix(h, t.prefix);
      h = util::fnv1a_u64(h, t.origin.value());
      h = util::fnv1a_u64(h, t.transit.value());
      h = fold_double(h, t.hegemony);
      h = util::fnv1a_byte(h, t.via_customer ? 1 : 0);
    }
    for (const Verdicts& v : verdicts_) {
      h = util::fnv1a_byte(h, v.action4.conformant ? 1 : 0);
      h = util::fnv1a_byte(h, v.action4.trivially ? 1 : 0);
      h = fold_double(h, v.action4.og_conformant);
      h = util::fnv1a_byte(h, v.action1.conformant ? 1 : 0);
      h = util::fnv1a_byte(h, v.action1.provides_transit ? 1 : 0);
      h = fold_double(h, v.action1.pg_unconformant);
    }
    h = fold_double(h, saturation_.manrs_routed_space);
    h = fold_double(h, saturation_.manrs_covered_space);
    h = fold_double(h, saturation_.non_manrs_routed_space);
    h = fold_double(h, saturation_.non_manrs_covered_space);
    for (const core::PreferenceScore& p : preference_) {
      h = fold_prefix(h, p.prefix_origin.prefix);
      h = util::fnv1a_u64(h, p.prefix_origin.origin.value());
      h = fold_double(h, p.score);
    }
    return h;
  }

  std::vector<size_t> sample(size_t n, size_t k, uint64_t stream) const {
    util::Rng rng(seeds_.workload ^ stream);
    std::vector<size_t> out;
    for (size_t i = 0; i < k && n > 0; ++i) out.push_back(rng.uniform(n));
    return out;
  }

  // Naive RFC 6811 and the §6.1 IRR rule agree with the records.
  bool check_routes() const {
    std::vector<rpki::Vrp> vrps;
    scenario_.vrps.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
    std::vector<bgp::PrefixOrigin> route_objects;
    for (const irr::IrrDatabase* db : scenario_.irr.databases()) {
      db->for_each_route([&](const irr::RouteObject& r) {
        route_objects.push_back(bgp::PrefixOrigin{r.prefix, r.origin});
      });
    }
    const auto& records = snapshot_.prefix_origins;
    for (size_t i : sample(records.size(), kRouteSample, 0x5157)) {
      const ihr::PrefixOriginRecord& r = records[i];
      if (naive_rpki(vrps, r.prefix, r.origin) != r.rpki ||
          naive_irr(route_objects, r.prefix, r.origin) != r.irr) {
        std::fprintf(stderr, "snapshot: %s disagrees with naive RPKI/IRR\n",
                     bgp::PrefixOrigin{r.prefix, r.origin}.to_string().c_str());
        return false;
      }
    }
    return true;
  }

  // Sampled vantage paths are loop-free, run from the vantage to the
  // origin, are valley-free, and number exactly the record's visibility.
  bool check_paths() const {
    const std::vector<net::Asn>& vantages = scenario_.vantage_points;
    sim::PathArena arena;
    const auto& records = snapshot_.prefix_origins;
    for (size_t i : sample(records.size(), kPathSample, 0x9a7)) {
      const ihr::PrefixOriginRecord& r = records[i];
      const sim::PropagationResultPtr result = sim_->propagate_cached(
          r.origin, class_of(r.prefix, r.rpki, r.irr));
      const std::vector<sim::PathView> views =
          sim_->extract_paths(*result, vantages, arena);
      uint32_t visible = 0;
      for (size_t v = 0; v < views.size(); ++v) {
        if (views[v].empty()) continue;
        ++visible;
        std::vector<uint32_t> path;
        for (net::Asn hop : views[v]) path.push_back(hop.value());
        if (path.front() != vantages[v].value() ||
            path.back() != r.origin.value() || !loop_free(path) ||
            !valley_free(scenario_.graph, path)) {
          std::fprintf(stderr, "snapshot: bad path from AS%u to %s\n",
                       vantages[v].value(),
                       bgp::PrefixOrigin{r.prefix, r.origin}.to_string().c_str());
          return false;
        }
      }
      if (visible != r.visibility) {
        std::fprintf(stderr, "snapshot: visibility %u, %u paths\n",
                     r.visibility, visible);
        return false;
      }
    }
    return true;
  }

  // Hegemony in (0, 1]; visibility never above the vantage count.
  bool check_bounds() const {
    const size_t vantages = scenario_.vantage_points.size();
    for (const ihr::PrefixOriginRecord& r : snapshot_.prefix_origins) {
      if (r.visibility > vantages) {
        std::fprintf(stderr, "snapshot: visibility %u > %zu vantages\n",
                     r.visibility, vantages);
        return false;
      }
    }
    for (const ihr::TransitRecord& t : snapshot_.transits) {
      if (!(t.hegemony > 0.0 && t.hegemony <= 1.0)) {
        std::fprintf(stderr, "snapshot: hegemony %.17g out of (0, 1]\n",
                     t.hegemony);
        return false;
      }
    }
    return true;
  }

  Seeds seeds_;
  topogen::Scenario scenario_;
  std::unique_ptr<sim::PropagationSim> sim_;
  std::unique_ptr<ihr::IhrSnapshotBuilder> builder_;
  std::vector<bgp::PrefixOrigin> announcements_;

  ihr::IhrSnapshot snapshot_;
  std::unordered_map<uint32_t, core::OriginationStats> origination_;
  std::unordered_map<uint32_t, core::PropagationStats> propagation_;
  std::vector<Verdicts> verdicts_;
  core::SaturationResult saturation_;
  std::vector<core::PreferenceScore> preference_;

  uint64_t digest_ = 0;
  uint64_t reference_ = 0;
  bool setup_ok_ = true;
  bool last_ok_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_snapshot(const Seeds& seeds) {
  return std::make_unique<Snapshot>(seeds);
}

}  // namespace perfbench
