#include "simulator/collector.h"

#include <algorithm>
#include <map>

#include "util/parallel.h"

namespace manrs::sim {

RouteCollector::RouteCollector(const PropagationSim& sim,
                               std::vector<net::Asn> peer_ases,
                               std::string name)
    : sim_(sim), peer_ases_(std::move(peer_ases)), name_(std::move(name)) {}

std::vector<AnnouncementGroup> group_announcements(
    const std::vector<Announcement>& announcements,
    std::vector<size_t>* group_of) {
  // Key: (origin, rpki_invalid, irr_invalid, variant). std::map keeps
  // group order deterministic. Valid announcements all share variant 0 so
  // they collapse into one group per origin.
  using Key = std::tuple<uint32_t, bool, bool, uint8_t>;
  auto key_of = [](const Announcement& a) {
    uint8_t variant =
        (a.cls.rpki_invalid || a.cls.irr_invalid) ? a.cls.variant : 0;
    return std::make_tuple(a.origin.value(), a.cls.rpki_invalid,
                           a.cls.irr_invalid, variant);
  };
  std::map<Key, AnnouncementGroup> groups;
  for (const auto& a : announcements) {
    auto key = key_of(a);
    auto& group = groups[key];
    group.origin = a.origin;
    group.cls = a.cls;
    group.cls.variant = std::get<3>(key);
    group.prefixes.push_back(a.prefix);
  }
  std::vector<AnnouncementGroup> out;
  out.reserve(groups.size());
  std::map<Key, size_t> order;
  for (auto& [key, group] : groups) {
    order.emplace(key, out.size());
    out.push_back(std::move(group));
  }
  if (group_of != nullptr) {
    group_of->clear();
    group_of->reserve(announcements.size());
    for (const auto& a : announcements) {
      group_of->push_back(order.at(key_of(a)));
    }
  }
  return out;
}

std::vector<std::vector<bgp::RibEntry>> RouteCollector::collect_group_entries(
    const std::vector<AnnouncementGroup>& groups) const {
  // Groups resolve in chunks of whole lane sweeps (kSweepsPerWorker per
  // pool worker): each chunk is one batched propagate_cached call, its
  // paths are extracted, and its results are released before the next
  // chunk resolves, so with the cache off only one chunk's per-AS results
  // are alive at a time. A chunk ends between origins -- groups of one
  // origin that share a cache key stay in one batch -- so the hit/miss
  // counts are those of a single batch over every group.
  constexpr size_t kSweepsPerWorker = 4;
  const size_t chunk =
      batch_width() * kSweepsPerWorker * std::max<size_t>(1, util::thread_count());
  std::vector<std::vector<bgp::RibEntry>> group_entries(groups.size());
  std::vector<PropagationRequest> requests;
  for (size_t begin = 0; begin < groups.size();) {
    size_t end = std::min(groups.size(), begin + chunk);
    while (end < groups.size() && end > begin + 1 &&
           groups[end].origin == groups[end - 1].origin) {
      --end;
    }
    while (end < groups.size() &&
           groups[end].origin == groups[end - 1].origin) {
      ++end;  // one origin's groups outnumber a chunk
    }
    requests.clear();
    for (size_t g = begin; g < end; ++g) {
      requests.push_back(PropagationRequest{groups[g].origin, groups[g].cls});
    }
    const std::vector<PropagationResultPtr> results =
        sim_.propagate_cached(requests);

    // Path extraction fans out per group; each worker thread reuses one
    // arena, so vantages sharing a customer-cone suffix share its hops.
    util::parallel_for(results.size(), [&](size_t k) {
      thread_local PathArena arena;
      const std::vector<PathView> views =
          sim_.extract_paths(*results[k], peer_ases_, arena);
      // Each peer's path is shared by every prefix in the group; peers
      // with no route are dropped here so the per-prefix merge never
      // re-walks them.
      std::vector<bgp::RibEntry> entries;
      entries.reserve(peer_ases_.size());
      for (size_t i = 0; i < peer_ases_.size(); ++i) {
        if (!views[i].empty()) {
          entries.push_back(
              bgp::RibEntry{static_cast<uint32_t>(i), views[i].to_path()});
        }
      }
      group_entries[begin + k] = std::move(entries);
    });
    begin = end;
  }
  return group_entries;
}

std::vector<bgp::RibRow> merge_group_entries(
    const std::vector<AnnouncementGroup>& groups,
    std::vector<std::vector<bgp::RibEntry>> group_entries) {
  // One task per announced (prefix, group). Sorting by (prefix, group)
  // puts every row's work in one contiguous run, in exactly the order
  // the serial build staged it: groups ascending, and duplicates of the
  // same pair are idempotent under replace-per-peer.
  struct Task {
    net::Prefix prefix;
    size_t group;
  };
  size_t total = 0;
  for (const auto& g : groups) total += g.prefixes.size();
  std::vector<Task> tasks;
  tasks.reserve(total);
  // Groups referenced by exactly one task never feed another row, so
  // their entries (and the AsPath heap blocks behind them) can be moved
  // into that row instead of deep-copied. Single-prefix groups dominate
  // invalid-announcement scenarios, so this trims most of the merge's
  // serial allocation fat.
  std::vector<uint32_t> group_refs(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const net::Prefix& prefix : groups[g].prefixes) {
      tasks.push_back(Task{prefix, g});
      ++group_refs[g];
    }
  }
  std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return a.group < b.group;
  });

  // Row boundaries at each distinct prefix. A chunk of consecutive rows
  // is a prefix-range shard, so the grain-chunked parallel_for below IS
  // the sharded build -- and each row lands in its index slot, so the
  // result is identical at any thread count.
  std::vector<size_t> row_start;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (t == 0 || tasks[t].prefix != tasks[t - 1].prefix) {
      row_start.push_back(t);
    }
  }
  row_start.push_back(tasks.size());
  const size_t rows = row_start.size() - 1;

  std::vector<bgp::RibRow> out(rows);
  util::parallel_for(rows, [&](size_t r) {
    bgp::RibRow row;
    row.prefix = tasks[row_start[r]].prefix;
    for (size_t t = row_start[r]; t < row_start[r + 1]; ++t) {
      // A singleton group belongs to this task alone: no other row (on
      // any thread) reads that slot, so stealing its entries is
      // race-free and value-identical to the copy.
      std::vector<bgp::RibEntry>& src = group_entries[tasks[t].group];
      const bool sole_use = group_refs[tasks[t].group] == 1;
      if (sole_use && row.entries.empty()) {
        row.entries = std::move(src);
        continue;
      }
      for (bgp::RibEntry& e : src) {
        auto it = std::find_if(row.entries.begin(), row.entries.end(),
                               [&](const bgp::RibEntry& have) {
                                 return have.peer_index == e.peer_index;
                               });
        if (it == row.entries.end()) {
          if (sole_use) {
            row.entries.push_back(std::move(e));
          } else {
            row.entries.push_back(e);
          }
        } else if (sole_use) {
          it->path = std::move(e.path);
        } else {
          it->path = e.path;
        }
      }
    }
    out[r] = std::move(row);
  });
  // Prefixes every peer dropped produce no row: an empty row cannot
  // survive an MRT write/read round-trip anyway.
  std::erase_if(out,
                [](const bgp::RibRow& row) { return row.entries.empty(); });
  return out;
}

bgp::Rib RouteCollector::collect(
    const std::vector<Announcement>& announcements) const {
  bgp::Rib rib;
  for (net::Asn peer : peer_ases_) rib.add_peer(peer);
  const std::vector<AnnouncementGroup> groups =
      group_announcements(announcements);
  rib.adopt_rows(merge_group_entries(groups, collect_group_entries(groups)));
  return rib;
}

}  // namespace manrs::sim
