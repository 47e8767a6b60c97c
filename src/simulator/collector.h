// Route collectors: the simulated RouteViews / RIPE RIS.
//
// A RouteCollector peers with a set of vantage ASes and assembles the RIB
// a real collector would dump: for every announcement, each peer that has
// a route contributes its best AS path. Announcements with identical
// (origin, validity class) propagate identically, so propagation results
// are computed once per group.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.h"
#include "bgp/route.h"
#include "simulator/propagation.h"

namespace manrs::sim {

/// One announcement entering the simulated routing system.
struct Announcement {
  net::Prefix prefix;
  net::Asn origin;
  AnnouncementClass cls;
};

/// Group announcements by (origin, class); the propagation unit.
struct AnnouncementGroup {
  net::Asn origin;
  AnnouncementClass cls;
  std::vector<net::Prefix> prefixes;
};

class RouteCollector {
 public:
  /// `peer_ases` are the ASes that feed this collector (a vantage-point
  /// set, like the RouteViews peers the paper inherits via IHR).
  RouteCollector(const PropagationSim& sim, std::vector<net::Asn> peer_ases,
                 std::string name = "route-views.sim");

  const std::string& name() const { return name_; }
  const std::vector<net::Asn>& peers() const { return peer_ases_; }

  /// Build the collector RIB for a set of announcements. Propagation
  /// fans out per group; the RIB itself is built by a sharded parallel
  /// merge (see merge_group_entries) instead of serial map inserts.
  bgp::Rib collect(const std::vector<Announcement>& announcements) const;

  /// The propagation half of collect(): run each group's propagation and
  /// gather its per-peer RIB entries (peer_index = position in peers();
  /// peers with no route are dropped). Slot g belongs to groups[g].
  /// Groups resolve in bounded chunks of whole lane sweeps, so the
  /// per-AS results held at once do not grow with the group count.
  /// Exposed so benchmarks can time propagation and merge separately.
  std::vector<std::vector<bgp::RibEntry>> collect_group_entries(
      const std::vector<AnnouncementGroup>& groups) const;

 private:
  const PropagationSim& sim_;
  std::vector<net::Asn> peer_ases_;
  std::string name_;
};

/// Group announcements by (origin, class) in deterministic key order.
/// When `group_of` is non-null it receives, per announcement, the index
/// of its group in the returned vector -- the O(1) lookup that lets
/// consumers address per-group results by index instead of re-deriving
/// string keys.
std::vector<AnnouncementGroup> group_announcements(
    const std::vector<Announcement>& announcements,
    std::vector<size_t>* group_of = nullptr);

/// Sharded parallel merge of per-group entry sets into sorted RIB rows
/// (the Rib::adopt_rows precondition). (prefix, group) pairs are sorted
/// so every distinct prefix becomes one row and ascending group order
/// reproduces the serial insert_many order; rows are then built in
/// parallel -- a chunk of consecutive rows is a prefix-range shard -- and
/// the result is byte-identical at any thread count or grain. Prefixes
/// whose groups reached no peer produce no row. Takes the entry sets by
/// value: groups referenced by a single (prefix, group) task have their
/// entries moved into the row instead of deep-copying every AsPath.
std::vector<bgp::RibRow> merge_group_entries(
    const std::vector<AnnouncementGroup>& groups,
    std::vector<std::vector<bgp::RibEntry>> group_entries);

}  // namespace manrs::sim
