#include "ihr/dataset.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "util/csv.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace manrs::ihr {

namespace {

rpki::RpkiStatus parse_rpki_status(std::string_view s) {
  if (s == "Valid") return rpki::RpkiStatus::kValid;
  if (s == "Invalid") return rpki::RpkiStatus::kInvalidAsn;
  if (s == "InvalidLength") return rpki::RpkiStatus::kInvalidLength;
  return rpki::RpkiStatus::kNotFound;
}

irr::IrrStatus parse_irr_status(std::string_view s) {
  if (s == "Valid") return irr::IrrStatus::kValid;
  if (s == "Invalid") return irr::IrrStatus::kInvalidAsn;
  if (s == "InvalidLength") return irr::IrrStatus::kInvalidLength;
  return irr::IrrStatus::kNotFound;
}

/// Memo key of a propagation group: origin, then the class bits.
uint64_t memo_key(const sim::AnnouncementGroup& group) {
  return (static_cast<uint64_t>(group.origin.value()) << 16) |
         (static_cast<uint64_t>(group.cls.variant) << 2) |
         (static_cast<uint64_t>(group.cls.rpki_invalid) << 1) |
         static_cast<uint64_t>(group.cls.irr_invalid);
}

}  // namespace

PrefixOriginRecord classify(const bgp::PrefixOrigin& announcement,
                            const rpki::VrpStore& vrps,
                            const irr::IrrRegistry& irr_registry) {
  PrefixOriginRecord record;
  record.prefix = announcement.prefix;
  record.origin = announcement.origin;
  record.rpki = vrps.validate(announcement.prefix, announcement.origin);
  record.irr = irr::validate_route(irr_registry, announcement.prefix,
                                   announcement.origin);
  return record;
}

std::vector<PrefixOriginRecord> classify(
    const std::vector<bgp::PrefixOrigin>& announcements,
    const rpki::VrpStore& vrps, const irr::IrrRegistry& irr_registry) {
  std::vector<PrefixOriginRecord> records;
  records.reserve(announcements.size());
  for (const bgp::PrefixOrigin& po : announcements) {
    records.push_back(classify(po, vrps, irr_registry));
  }
  return records;
}

sim::AnnouncementClass announcement_class(const PrefixOriginRecord& record) {
  sim::AnnouncementClass cls;
  cls.rpki_invalid = rpki::is_invalid(record.rpki);
  cls.irr_invalid = record.irr == irr::IrrStatus::kInvalidAsn;
  if (cls.rpki_invalid || cls.irr_invalid) {
    cls.variant = sim::filter_variant(record.prefix);
  }
  return cls;
}

IhrSnapshotBuilder::IhrSnapshotBuilder(const sim::PropagationSim& sim,
                                       std::vector<net::Asn> vantage_points,
                                       double trim)
    : sim_(sim), vantage_points_(std::move(vantage_points)), trim_(trim) {}

IhrSnapshot IhrSnapshotBuilder::build(
    const std::vector<bgp::PrefixOrigin>& announcements,
    const rpki::VrpStore& vrps, const irr::IrrRegistry& irr_registry) const {
  return build(classify(announcements, vrps, irr_registry));
}

IhrSnapshot IhrSnapshotBuilder::build(
    std::vector<PrefixOriginRecord> classified, HegemonyMemo* memo) const {
  // Group by (origin, droppability class): groups propagate identically.
  // group_of[i] is record i's index into the group (and slot) vectors --
  // no string keys, no hash lookups on the emit path.
  std::vector<sim::Announcement> announcements;
  announcements.reserve(classified.size());
  for (const PrefixOriginRecord& record : classified) {
    announcements.push_back(sim::Announcement{record.prefix, record.origin,
                                              announcement_class(record)});
  }
  std::vector<size_t> group_of;
  const auto groups = sim::group_announcements(announcements, &group_of);
  // One batched resolve for every group. When the same simulator already
  // served RouteCollector, the collector's propagations are all cache
  // hits here; fresh misses run through the lane engine batch_width()
  // origins per sweep.
  std::vector<sim::PropagationRequest> requests;
  requests.reserve(groups.size());
  for (const auto& group : groups) {
    requests.push_back(sim::PropagationRequest{group.origin, group.cls});
  }
  const std::vector<sim::PropagationResultPtr> results =
      sim_.propagate_cached(requests);

  // A view the memo took from this very result object is today's view.
  std::vector<HegemonyMemo::View> views(groups.size());
  std::vector<char> reused(groups.size(), 0);
  if (memo) {
    for (size_t g = 0; g < groups.size(); ++g) {
      const auto it = memo->entries_.find(memo_key(groups[g]));
      if (it != memo->entries_.end() &&
          it->second.result.lock().get() == results[g].get()) {
        views[g] = std::move(it->second.view);
        reused[g] = 1;
      }
    }
  }

  // Each group's hegemony estimate depends only on const simulator state
  // and its result slot: fan the groups out and fill index-addressed
  // slots (determinism contract; see docs/performance.md). Per-vantage
  // paths are arena views scoped to this group's iteration -- each worker
  // thread reuses one arena, so vantages sharing a customer-cone suffix
  // share its hops.
  util::parallel_for(groups.size(), [&](size_t g) {
    if (reused[g]) return;
    thread_local sim::PathArena arena;
    const sim::PropagationResult& result = *results[g];
    const std::vector<sim::PathView> all_views =
        sim_.extract_paths(result, vantage_points_, arena);
    std::vector<sim::PathView> paths;  // one per vantage with a route
    paths.reserve(all_views.size());
    for (const sim::PathView& path : all_views) {
      if (!path.empty()) paths.push_back(path);
    }
    HegemonyMemo::View view;
    view.visibility = static_cast<uint32_t>(paths.size());
    view.hegemony = compute_hegemony(paths, trim_);
    view.via_customer.reserve(view.hegemony.size());
    for (const auto& score : view.hegemony) {
      int32_t id = sim_.indexer().id_of(score.asn);
      view.via_customer.push_back(
          id >= 0 && result.source(id) == sim::RouteSource::kCustomer);
    }
    views[g] = std::move(view);
  });

  // Emit records.
  IhrSnapshot snapshot;
  for (size_t i = 0; i < classified.size(); ++i) {
    PrefixOriginRecord& record = classified[i];
    const HegemonyMemo::View& view = views[group_of[i]];
    record.visibility = view.visibility;
    for (size_t t = 0; t < view.hegemony.size(); ++t) {
      if (view.hegemony[t].asn == record.origin) continue;  // trivial transit
      TransitRecord transit;
      transit.prefix = record.prefix;
      transit.origin = record.origin;
      transit.transit = view.hegemony[t].asn;
      transit.hegemony = view.hegemony[t].score;
      transit.via_customer = view.via_customer[t];
      transit.rpki = record.rpki;
      transit.irr = record.irr;
      snapshot.transits.push_back(transit);
    }
  }
  snapshot.prefix_origins = std::move(classified);

  if (memo) {
    memo->entries_.clear();
    memo->entries_.reserve(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      memo->entries_.emplace(
          memo_key(groups[g]),
          HegemonyMemo::Entry{results[g], std::move(views[g])});
    }
    memo->groups_ = groups.size();
    memo->reused_ = static_cast<size_t>(
        std::count(reused.begin(), reused.end(), char{1}));
  }
  return snapshot;
}

void write_prefix_origin_csv(std::ostream& out,
                             const std::vector<PrefixOriginRecord>& records) {
  util::CsvWriter writer(out);
  writer.write_row(std::vector<std::string_view>{
      "prefix", "originasn", "rpki_status", "irr_status", "visibility"});
  for (const auto& r : records) {
    writer.write_row(std::vector<std::string_view>{
        r.prefix.to_string(), std::to_string(r.origin.value()),
        rpki::to_string(r.rpki), irr::to_string(r.irr),
        std::to_string(r.visibility)});
  }
}

std::vector<PrefixOriginRecord> read_prefix_origin_csv(std::istream& in,
                                                       size_t* bad_rows) {
  util::CsvReader reader(in);
  std::vector<PrefixOriginRecord> out;
  size_t bad = 0;
  util::CsvRow row;
  while (reader.next(row)) {
    if (!row.empty() && row[0] == "prefix") continue;  // header
    if (row.size() < 5) {
      ++bad;
      continue;
    }
    auto prefix = net::Prefix::parse(row[0]);
    auto origin = net::Asn::parse(row[1]);
    auto visibility = util::parse_uint<uint32_t>(row[4]);
    if (!prefix || !origin || !visibility) {
      ++bad;
      continue;
    }
    PrefixOriginRecord r;
    r.prefix = *prefix;
    r.origin = *origin;
    r.rpki = parse_rpki_status(row[2]);
    r.irr = parse_irr_status(row[3]);
    r.visibility = *visibility;
    out.push_back(r);
  }
  if (bad_rows) *bad_rows = bad;
  return out;
}

void write_transit_csv(std::ostream& out,
                       const std::vector<TransitRecord>& records) {
  util::CsvWriter writer(out);
  writer.write_row(std::vector<std::string_view>{
      "prefix", "originasn", "transitasn", "hegemony", "via_customer",
      "rpki_status", "irr_status"});
  char hege[32];
  for (const auto& r : records) {
    std::snprintf(hege, sizeof(hege), "%.6f", r.hegemony);
    writer.write_row(std::vector<std::string_view>{
        r.prefix.to_string(), std::to_string(r.origin.value()),
        std::to_string(r.transit.value()), hege,
        r.via_customer ? "1" : "0", rpki::to_string(r.rpki),
        irr::to_string(r.irr)});
  }
}

std::vector<TransitRecord> read_transit_csv(std::istream& in,
                                            size_t* bad_rows) {
  util::CsvReader reader(in);
  std::vector<TransitRecord> out;
  size_t bad = 0;
  util::CsvRow row;
  while (reader.next(row)) {
    if (!row.empty() && row[0] == "prefix") continue;
    if (row.size() < 7) {
      ++bad;
      continue;
    }
    auto prefix = net::Prefix::parse(row[0]);
    auto origin = net::Asn::parse(row[1]);
    auto transit = net::Asn::parse(row[2]);
    auto hegemony = util::parse_double(row[3]);
    if (!prefix || !origin || !transit || !hegemony) {
      ++bad;
      continue;
    }
    TransitRecord r;
    r.prefix = *prefix;
    r.origin = *origin;
    r.transit = *transit;
    r.hegemony = *hegemony;
    r.via_customer = row[4] == "1";
    r.rpki = parse_rpki_status(row[5]);
    r.irr = parse_irr_status(row[6]);
    out.push_back(r);
  }
  if (bad_rows) *bad_rows = bad;
  return out;
}

}  // namespace manrs::ihr
