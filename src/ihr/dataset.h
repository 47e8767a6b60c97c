// The Internet Health Report datasets (§5.3 of the paper).
//
// The paper consumes two IHR products:
//   * the *prefix-origin dataset*: routed (prefix, origin AS) pairs with
//     their RPKI and IRR statuses (the origin is the "trivial transit"
//     with hegemony 1, split out of the transit data);
//   * the *transit dataset*: for each prefix-origin pair, the transit ASes
//     observed on paths toward it with their AS-hegemony scores.
//
// classify() runs the real RFC 6811 / IRR validators over each
// announcement -- i.e. the IHR ROV module re-implemented -- and
// IhrSnapshotBuilder recomputes both datasets from the simulator's paths.
// The CSV layouts mirror the fields the paper lists: prefix, origin AS,
// RPKI status, IRR status, transit AS, AS hegemony.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bgp/route.h"
#include "ihr/hegemony.h"
#include "irr/validation.h"
#include "netbase/asn.h"
#include "netbase/prefix.h"
#include "rpki/validation.h"
#include "simulator/collector.h"
#include "simulator/propagation.h"

namespace manrs::ihr {

struct PrefixOriginRecord {
  net::Prefix prefix;
  net::Asn origin;
  rpki::RpkiStatus rpki = rpki::RpkiStatus::kNotFound;
  irr::IrrStatus irr = irr::IrrStatus::kNotFound;
  /// Number of vantage points with a route (visibility).
  uint32_t visibility = 0;

  friend bool operator==(const PrefixOriginRecord&,
                         const PrefixOriginRecord&) = default;
};

struct TransitRecord {
  net::Prefix prefix;
  net::Asn origin;
  net::Asn transit;
  double hegemony = 0.0;
  /// True when the transit learned this route from a direct customer;
  /// Formula 6 (Action 1 conformance) scopes to customer announcements.
  bool via_customer = false;
  rpki::RpkiStatus rpki = rpki::RpkiStatus::kNotFound;
  irr::IrrStatus irr = irr::IrrStatus::kNotFound;

  friend bool operator==(const TransitRecord&, const TransitRecord&) = default;
};

struct IhrSnapshot {
  std::vector<PrefixOriginRecord> prefix_origins;
  std::vector<TransitRecord> transits;

  friend bool operator==(const IhrSnapshot&, const IhrSnapshot&) = default;
};

/// Classify announcements against `vrps` (RFC 6811) and `irr_registry`
/// (route objects). Visibility stays 0 until a build fills it in.
PrefixOriginRecord classify(const bgp::PrefixOrigin& announcement,
                            const rpki::VrpStore& vrps,
                            const irr::IrrRegistry& irr_registry);
std::vector<PrefixOriginRecord> classify(
    const std::vector<bgp::PrefixOrigin>& announcements,
    const rpki::VrpStore& vrps, const irr::IrrRegistry& irr_registry);

/// The propagation class of a classified announcement: RPKI-invalid and
/// IRR wrong-origin routes are droppable, and only droppable routes carry
/// a filter variant. The one place the (rpki, irr) -> class rule lives.
sim::AnnouncementClass announcement_class(const PrefixOriginRecord& record);

/// Per-(origin, class) hegemony views carried from one build to the next.
/// A view depends only on its group's propagation result, so a build
/// reuses it while the simulator's cache returns the same result object.
/// The memo holds that result weakly: a result the cache drops is freed
/// at once, and an expired pointer never matches, even if a new result
/// takes its address. Use one memo with one simulator, vantage set and
/// trim.
class HegemonyMemo {
 public:
  /// Groups in the last build, and how many of their views were reused.
  size_t groups() const { return groups_; }
  size_t reused() const { return reused_; }

 private:
  friend class IhrSnapshotBuilder;

  struct View {
    uint32_t visibility = 0;
    std::vector<HegemonyScore> hegemony;  // transit scores
    std::vector<bool> via_customer;       // aligned with hegemony
  };
  struct Entry {
    std::weak_ptr<const sim::PropagationResult> result;
    View view;
  };

  std::unordered_map<uint64_t, Entry> entries_;
  size_t groups_ = 0;
  size_t reused_ = 0;
};

class IhrSnapshotBuilder {
 public:
  /// `vantage_points` are the collector-peer ASes whose paths feed the
  /// hegemony estimation; `trim` is the hegemony trim fraction.
  IhrSnapshotBuilder(const sim::PropagationSim& sim,
                     std::vector<net::Asn> vantage_points,
                     double trim = 0.1);

  /// Build a snapshot from classified records: their statuses both label
  /// the output and decide droppability during propagation, as in the
  /// real system where routers validate the same data. The records come
  /// back as the prefix-origin dataset, in order, with visibility filled
  /// in. `memo`, when given, serves and keeps the per-group views.
  IhrSnapshot build(std::vector<PrefixOriginRecord> classified,
                    HegemonyMemo* memo = nullptr) const;

  /// build(classify(announcements, vrps, irr_registry)).
  IhrSnapshot build(const std::vector<bgp::PrefixOrigin>& announcements,
                    const rpki::VrpStore& vrps,
                    const irr::IrrRegistry& irr_registry) const;

 private:
  const sim::PropagationSim& sim_;
  std::vector<net::Asn> vantage_points_;
  double trim_;
};

/// CSV I/O for both datasets (used to archive snapshots and by tests).
void write_prefix_origin_csv(std::ostream& out,
                             const std::vector<PrefixOriginRecord>& records);
std::vector<PrefixOriginRecord> read_prefix_origin_csv(
    std::istream& in, size_t* bad_rows = nullptr);
void write_transit_csv(std::ostream& out,
                       const std::vector<TransitRecord>& records);
std::vector<TransitRecord> read_transit_csv(std::istream& in,
                                            size_t* bad_rows = nullptr);

}  // namespace manrs::ihr
