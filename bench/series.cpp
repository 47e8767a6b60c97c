// SnapshotSeries: the temporal snapshot engine (see harness.h).
//
// The incremental path and the cold-rebuild oracle both run
// IhrSnapshotBuilder::build -- the emit path of every snapshot and figure
// -- so any divergence between them is a real divergence of the *inputs*
// (classifications, registries, propagation results): exactly what the
// byte-identity digests are meant to catch.

#include <bit>
#include <unordered_set>
#include <utility>

#include "harness.h"
#include "util/det_hash.h"

namespace manrs::benchx {

namespace {

uint64_t fold_prefix(uint64_t h, const net::Prefix& prefix) {
  h = util::fnv1a_u64(h, prefix.address().hi());
  h = util::fnv1a_u64(h, prefix.address().lo());
  h = util::fnv1a_byte(h, static_cast<uint8_t>(prefix.length()));
  h = util::fnv1a_byte(h, prefix.is_v4() ? 4 : 6);
  return h;
}

uint64_t fold_record(uint64_t h, const ihr::PrefixOriginRecord& r) {
  h = fold_prefix(h, r.prefix);
  h = util::fnv1a_u64(h, r.origin.value());
  h = util::fnv1a_byte(h, static_cast<uint8_t>(r.rpki));
  h = util::fnv1a_byte(h, static_cast<uint8_t>(r.irr));
  h = util::fnv1a_u64(h, r.visibility);
  return h;
}

uint64_t fold_record(uint64_t h, const ihr::TransitRecord& r) {
  h = fold_prefix(h, r.prefix);
  h = util::fnv1a_u64(h, r.origin.value());
  h = util::fnv1a_u64(h, r.transit.value());
  h = util::fnv1a_u64(h, std::bit_cast<uint64_t>(r.hegemony));
  h = util::fnv1a_byte(h, r.via_customer ? 1 : 0);
  h = util::fnv1a_byte(h, static_cast<uint8_t>(r.rpki));
  h = util::fnv1a_byte(h, static_cast<uint8_t>(r.irr));
  return h;
}

/// One day: build the IHR snapshot from the day's classified
/// `announcements` (through `memo` when given) and reduce it to the day's
/// series point.
DayOutputs compute_day_outputs(
    int day, const std::vector<bgp::PrefixOrigin>& announcements,
    std::vector<ihr::PrefixOriginRecord> classified,
    const sim::PropagationSim& sim,
    const std::vector<net::Asn>& vantage_points, const rpki::VrpStore& vrps,
    const core::ManrsRegistry& registry, ihr::HegemonyMemo* memo) {
  const ihr::IhrSnapshotBuilder builder(sim, vantage_points);
  const ihr::IhrSnapshot snapshot = builder.build(std::move(classified), memo);

  DayOutputs out;
  out.day = day;
  out.announcements = snapshot.prefix_origins.size();
  out.transit_records = snapshot.transits.size();
  out.prefix_origin_digest = util::kFnv1aOffset;
  for (const ihr::PrefixOriginRecord& record : snapshot.prefix_origins) {
    out.prefix_origin_digest = fold_record(out.prefix_origin_digest, record);
    switch (core::classify_conformance(record.rpki, record.irr)) {
      case core::ConformanceClass::kConformant:
        ++out.conformant;
        break;
      case core::ConformanceClass::kUnconformant:
        ++out.unconformant;
        break;
      case core::ConformanceClass::kUnregistered:
        break;
    }
  }
  out.transit_digest = util::kFnv1aOffset;
  for (const ihr::TransitRecord& transit : snapshot.transits) {
    out.transit_digest = fold_record(out.transit_digest, transit);
  }

  // ---- series points ----------------------------------------------------
  out.participants = registry.participant_count();
  out.member_ases = registry.member_ases().size();

  const core::SaturationResult saturation =
      core::compute_rpki_saturation(announcements, vrps, registry);
  out.rsat_manrs = saturation.rsat_manrs();
  out.rsat_non_manrs = saturation.rsat_non_manrs();

  const std::vector<core::PreferenceScore> preferences =
      core::compute_preference_scores(snapshot.transits, registry);
  uint64_t pref_digest = util::kFnv1aOffset;
  double valid_sum = 0.0;
  double other_sum = 0.0;
  size_t valid_n = 0;
  size_t other_n = 0;
  for (const core::PreferenceScore& p : preferences) {
    pref_digest = fold_prefix(pref_digest, p.prefix_origin.prefix);
    pref_digest = util::fnv1a_u64(pref_digest, p.prefix_origin.origin.value());
    pref_digest = util::fnv1a_byte(pref_digest, static_cast<uint8_t>(p.rpki));
    pref_digest =
        util::fnv1a_u64(pref_digest, std::bit_cast<uint64_t>(p.score));
    if (p.rpki == rpki::RpkiStatus::kValid) {
      valid_sum += p.score;
      ++valid_n;
    } else {
      other_sum += p.score;
      ++other_n;
    }
  }
  out.preference_digest = pref_digest;
  out.preference_valid_mean =
      valid_n ? valid_sum / static_cast<double>(valid_n) : 0.0;
  out.preference_other_mean =
      other_n ? other_sum / static_cast<double>(other_n) : 0.0;
  return out;
}

}  // namespace

SnapshotSeries::SnapshotSeries(const topogen::Scenario& base,
                               topogen::EvolutionConfig config)
    : base_(&base),
      evolution_(base, config),
      vrps_(evolution_.vrps_at(0)),
      irr_(evolution_.irr_at(0)),
      registry_(evolution_.registry_at(0)),
      sim_(base.graph) {
  for (const topogen::AsProfile& profile : base.profiles) {
    sim_.set_policy(profile.asn, profile.policy);
  }
  for (const bgp::PrefixOrigin& po : evolution_.announcements_at(0)) {
    rib_.insert(po.prefix, peer_of(po.origin),
                bgp::AsPath(std::vector<net::Asn>{po.origin}));
  }
  rib_.finalize();
  for (const bgp::PrefixOrigin& po : rib_.prefix_origins()) {
    classifications_.emplace(po, ihr::classify(po, vrps_, irr_));
    announcement_index_.insert(po.prefix, po);
  }
}

uint32_t SnapshotSeries::peer_of(net::Asn origin) {
  const auto it = origin_peer_.find(origin.value());
  if (it != origin_peer_.end()) return it->second;
  const uint32_t index = rib_.add_peer(origin);
  origin_peer_.emplace(origin.value(), index);
  return index;
}

topogen::EcosystemDelta SnapshotSeries::begin_day() {
  return evolution_.delta_for_day(day_ + 1);
}

void SnapshotSeries::apply(const topogen::EcosystemDelta& delta) {
  stats_ = DayEngineStats{};
  stats_.day = delta.day;
  stats_.delta_ops = delta.op_count();
  {
    const sim::PropagationCacheStats cache = sim_.cache_stats();
    baseline_hits_ = cache.hits;
    baseline_misses_ = cache.misses;
  }

  // Registries first: the (re)classifications below must see day state.
  for (const rpki::Vrp& vrp : delta.roa_remove) vrps_.stage_remove(vrp);
  for (const rpki::Vrp& vrp : delta.roa_add) vrps_.stage_add(vrp);
  vrps_.finalize_delta();

  std::unordered_set<irr::IrrDatabase*> touched;
  for (const topogen::IrrEdit& edit : delta.irr_remove) {
    if (irr::IrrDatabase* db = irr_.find_database_mut(edit.db)) {
      db->stage_remove_route(edit.route.prefix, edit.route.origin);
      touched.insert(db);
    }
  }
  for (const topogen::IrrEdit& edit : delta.irr_add) {
    if (irr::IrrDatabase* db = irr_.find_database_mut(edit.db)) {
      db->stage_add_route(edit.route);
      touched.insert(db);
    }
  }
  for (irr::IrrDatabase* db : touched) db->finalize_delta();

  // Announcement churn folds through the Rib's staged delta path.
  rib_.begin_delta();
  for (const bgp::PrefixOrigin& po : delta.withdraw) {
    rib_.erase(po.prefix, peer_of(po.origin));
  }
  for (const bgp::PrefixOrigin& po : delta.announce) {
    rib_.insert(po.prefix, peer_of(po.origin),
                bgp::AsPath(std::vector<net::Asn>{po.origin}));
  }
  rib_.finalize();

  // Classification upkeep: drop withdrawn pairs, classify new ones, and
  // re-run the validators only where a covering ROA or route object
  // changed (subtree walk of the announcement index).
  for (const bgp::PrefixOrigin& po : delta.withdraw) {
    if (classifications_.erase(po) > 0) {
      announcement_index_.erase_at(
          po.prefix, [&](const bgp::PrefixOrigin& v) { return v == po; });
    }
  }
  std::unordered_set<bgp::PrefixOrigin> dirty;
  auto mark_under = [&](const net::Prefix& changed) {
    announcement_index_.for_each_covered(
        changed, [&](const bgp::PrefixOrigin& po) { dirty.insert(po); });
  };
  for (const rpki::Vrp& vrp : delta.roa_add) mark_under(vrp.prefix);
  for (const rpki::Vrp& vrp : delta.roa_remove) mark_under(vrp.prefix);
  for (const topogen::IrrEdit& edit : delta.irr_add) {
    mark_under(edit.route.prefix);
  }
  for (const topogen::IrrEdit& edit : delta.irr_remove) {
    mark_under(edit.route.prefix);
  }
  for (const bgp::PrefixOrigin& po : dirty) {
    const auto it = classifications_.find(po);
    if (it == classifications_.end()) continue;
    it->second = ihr::classify(po, vrps_, irr_);
    ++stats_.reclassified;
  }
  for (const bgp::PrefixOrigin& po : delta.announce) {
    auto [it, inserted] = classifications_.try_emplace(po);
    if (inserted) {
      it->second = ihr::classify(po, vrps_, irr_);
      announcement_index_.insert(po.prefix, po);
      ++stats_.reclassified;
    }
  }

  // Membership, policies, and topology growth.
  registry_ = evolution_.registry_at(delta.day);
  sim::SimDelta sim_delta;
  sim_delta.policies.reserve(delta.members.size());
  for (const topogen::MembershipChange& change : delta.members) {
    sim_delta.policies.push_back(
        sim::SimDelta::PolicyChange{change.asn, change.policy});
  }
  sim_delta.edges = delta.edges;
  const sim::SimDeltaStats sim_stats = sim_.apply_delta(sim_delta);
  stats_.cache_invalidated = sim_stats.entries_invalidated;

  day_ = delta.day;
}

const DayOutputs& SnapshotSeries::recompute() {
  const std::vector<bgp::PrefixOrigin> announcements = rib_.prefix_origins();
  std::vector<ihr::PrefixOriginRecord> classified;
  classified.reserve(announcements.size());
  for (const bgp::PrefixOrigin& po : announcements) {
    classified.push_back(classifications_.at(po));
  }
  outputs_ = compute_day_outputs(day_, announcements, std::move(classified),
                                 sim_, base_->vantage_points, vrps_, registry_,
                                 &hegemony_memo_);
  stats_.groups = hegemony_memo_.groups();
  stats_.groups_reused = hegemony_memo_.reused();
  const sim::PropagationCacheStats cache = sim_.cache_stats();
  stats_.cache_hits = cache.hits - baseline_hits_;
  stats_.cache_misses = cache.misses - baseline_misses_;
  return outputs_;
}

const DayOutputs& SnapshotSeries::advance() {
  const topogen::EcosystemDelta delta = begin_day();
  apply(delta);
  return recompute();
}

DayOutputs SnapshotSeries::cold_rebuild(int k) const {
  bgp::Rib rib;
  std::unordered_map<uint32_t, uint32_t> peers;
  for (const bgp::PrefixOrigin& po : evolution_.announcements_at(k)) {
    auto [it, inserted] = peers.emplace(po.origin.value(), 0u);
    if (inserted) it->second = rib.add_peer(po.origin);
    rib.insert(po.prefix, it->second,
               bgp::AsPath(std::vector<net::Asn>{po.origin}));
  }
  rib.finalize();

  const rpki::VrpStore vrps = evolution_.vrps_at(k);
  const irr::IrrRegistry irr = evolution_.irr_at(k);
  const core::ManrsRegistry registry = evolution_.registry_at(k);
  const astopo::AsGraph graph = evolution_.graph_at(k);
  sim::PropagationSim cold(graph);
  for (const topogen::AsProfile& profile : base_->profiles) {
    cold.set_policy(profile.asn, profile.policy);
  }
  for (const sim::SimDelta::PolicyChange& change :
       evolution_.policy_changes_through(k)) {
    cold.set_policy(change.asn, change.policy);
  }
  const std::vector<bgp::PrefixOrigin> announcements = rib.prefix_origins();
  return compute_day_outputs(k, announcements,
                             ihr::classify(announcements, vrps, irr), cold,
                             base_->vantage_points, vrps, registry,
                             /*memo=*/nullptr);
}

}  // namespace manrs::benchx
