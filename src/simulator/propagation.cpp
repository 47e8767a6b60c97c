#include "simulator/propagation.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/det_hash.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace manrs::sim {

AsIndexer::AsIndexer(const astopo::AsGraph& graph) {
  // all_asns() is ascending, so dense ids are ASN-ascending: comparing
  // ids IS comparing ASNs (the engine's tie-breaks depend on this).
  asns_ = graph.all_asns();
  if (asns_.size() > PropagationResult::kHopNone) {
    throw std::length_error("AsIndexer: more ASes than the 29-bit hop field");
  }
  ids_.reserve(asns_.size());
  for (size_t i = 0; i < asns_.size(); ++i) {
    ids_.emplace(asns_[i].value(), static_cast<int32_t>(i));
  }
}

namespace {

/// Walk `result`'s next-hop chain from routed AS `id` to the origin,
/// calling `visit` on every AS of [id, ..., origin]. A well-formed chain
/// is a simple path, so it reaches the origin within `limit` hops;
/// kBrokenChain when it runs longer (a cycle) or leaves the first `limit`
/// ids or routed state.
template <typename Visit>
PathStatus walk_chain(const PropagationResult& result, int32_t id,
                      size_t limit, Visit&& visit) {
  int32_t current = id;
  for (size_t steps = 0; steps <= limit; ++steps) {
    visit(current);
    if (result.source(current) == RouteSource::kOrigin) return PathStatus::kOk;
    const int32_t next = result.next_hop(current);
    if (next < 0 || static_cast<size_t>(next) >= limit ||
        !result.reached(next)) {
      return PathStatus::kBrokenChain;
    }
    current = next;
  }
  return PathStatus::kBrokenChain;
}

}  // namespace

uint16_t PropagationResult::distance(int32_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= words.size() || !reached(id)) {
    return kNoDistance;
  }
  size_t hops = 0;
  if (walk_chain(*this, id, words.size(), [&](int32_t) { ++hops; }) !=
      PathStatus::kOk) {
    return kNoDistance;
  }
  return static_cast<uint16_t>(std::min<size_t>(hops - 1, kNoDistance));
}

uint8_t filter_variant(const net::Prefix& prefix) {
  // FNV-1a over the prefix's wire bytes. std::hash would make the bucket
  // -- and through it scenario and dataset bytes -- depend on the
  // standard library in use.
  uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_byte(h, static_cast<uint8_t>(prefix.family()));
  h = util::fnv1a_byte(h, static_cast<uint8_t>(prefix.length()));
  h = util::fnv1a_u64(h, prefix.address().hi());
  h = util::fnv1a_u64(h, prefix.address().lo());
  return static_cast<uint8_t>(h % kFilterVariants);
}

namespace {

/// Reference drop rule: would `receiver` drop this announcement when
/// learning it over the given adjacency? The packed drop masks are built
/// from this; the BFS itself only ever does bit tests.
bool drops(const FilterPolicy& receiver, RouteSource adjacency,
           const AnnouncementClass& cls) {
  if (receiver.rov && cls.rpki_invalid) return true;
  bool invalid = cls.rpki_invalid || cls.irr_invalid;
  if (!invalid) return false;
  if (adjacency == RouteSource::kCustomer &&
      cls.variant < receiver.customer_strictness) {
    return true;
  }
  if (adjacency == RouteSource::kPeer &&
      cls.variant < receiver.peer_strictness) {
    return true;
  }
  return false;
}

inline bool test_bit(const uint64_t* mask, int32_t v) {
  size_t i = static_cast<size_t>(v);
  return ((mask[i >> 6] >> (i & 63)) & 1) != 0;
}

/// Heap footprint of one cached PropagationResult: its packed words plus
/// the make_shared block (control block and the result's vector header),
/// the cache map's node and bucket slot, and a malloc header for each of
/// the three allocations.
size_t cache_entry_bytes(size_t n) {
  constexpr size_t kMallocHeader = 16;
  constexpr size_t kControlBlock = 16;  // vtable pointer + two counts
  constexpr size_t kMapNode =
      sizeof(void*) + sizeof(std::pair<const uint64_t, PropagationResultPtr>);
  return n * sizeof(uint32_t) + kControlBlock + sizeof(PropagationResult) +
         kMapNode + sizeof(void*) + 3 * kMallocHeader;
}

size_t cache_capacity_from_env() {
  constexpr size_t kDefaultMb = 2048;
  const char* env = std::getenv("MANRS_PROP_CACHE_MB");
  size_t mb = kDefaultMb;
  if (env != nullptr && *env != '\0') {
    if (auto parsed = util::parse_uint<uint64_t>(env)) {
      mb = static_cast<size_t>(*parsed);
    }
  }
  return mb * 1024 * 1024;
}

// Adjacency indices into the drop-mask table.
constexpr size_t kDropCustomer = 0;
constexpr size_t kDropPeer = 1;
constexpr size_t kDropProvider = 2;

// ---- batched lane engine ---------------------------------------------------
// Each (AS, lane) carries one packed 32-bit order key, smaller = better
// under unsigned comparison:
//
//     [31:30] priority   [29:h] distance   [h-1:0] next-hop id
//
// with priority 0 = origin, 1 = customer, 2 = peer, 3 = provider and
// h = std::bit_width(n) (PropagationSim::lane_hop_bits_), so every dense
// id fits the hop field and none fills it with ones. The priority field
// makes the phase interactions fall out of one min-fold:
// a provider candidate can never displace a customer/peer/origin key, and
// a peer candidate can never displace a customer key. Unseen is all ones;
// require_lane_distance_fits() keeps every route distance below the
// all-ones distance, so no valid key equals kLaneUnseen and a +1 on the
// distance field never carries into the priority.
constexpr uint32_t kLaneUnseen = 0xffffffffu;
constexpr int kLanePrioShift = 30;
constexpr uint32_t kLaneCustomerPrio = 1u << kLanePrioShift;
constexpr uint32_t kLanePeerPrio = 2u << kLanePrioShift;
constexpr uint32_t kLaneProviderPrio = 3u << kLanePrioShift;

/// Result-word source field by lane-key priority (0 = origin: only the
/// origin holds key 0).
constexpr std::array<uint32_t, 4> kLaneSourceBits = {
    PropagationResult::pack(RouteSource::kOrigin, 0),
    PropagationResult::pack(RouteSource::kCustomer, 0),
    PropagationResult::pack(RouteSource::kPeer, 0),
    PropagationResult::pack(RouteSource::kProvider, 0),
};

/// The distance field [29:h] of a lane key with `hop_bits` = h.
constexpr uint32_t lane_dist_field(int hop_bits) {
  return ((1u << kLanePrioShift) - 1) & ~((1u << hop_bits) - 1);
}

/// Throws std::length_error when a route distance of `bound` hops does not
/// fit the distance field next to `hop_bits`-bit next-hop ids with the
/// all-ones distance reserved.
void require_lane_distance_fits(int hop_bits, uint32_t bound) {
  const uint32_t all_ones = lane_dist_field(hop_bits) >> hop_bits;
  if (bound >= all_ones) {
    throw std::length_error(
        "PropagationSim: route distances overflow the lane key's distance "
        "field");
  }
}

constexpr uint32_t kUnreachedWord =
    PropagationResult::pack(RouteSource::kNone, PropagationResult::kNoRoute);
constexpr uint32_t kOriginWord =
    PropagationResult::pack(RouteSource::kOrigin, PropagationResult::kNoRoute);

/// The all-none result of an unknown origin.
PropagationResult unreached_result(size_t n) {
  PropagationResult result;
  result.words.assign(n, kUnreachedWord);
  return result;
}

std::atomic<size_t> g_batch_width{0};  // 0 = unset; next read consults env

size_t batch_width_from_env() {
  const char* env = std::getenv("MANRS_BATCH_WIDTH");
  size_t width = kMaxBatchLanes;
  if (env != nullptr && *env != '\0') {
    if (auto parsed = util::parse_uint<uint64_t>(env); parsed && *parsed > 0) {
      width = static_cast<size_t>(*parsed);
    }
  }
  return std::min(std::max<size_t>(width, 1), kMaxBatchLanes);
}

// Arena path-extraction counters (see PathArenaStats).
std::atomic<uint64_t> g_arena_paths{0};
std::atomic<uint64_t> g_arena_hops{0};
std::atomic<uint64_t> g_arena_shared_hops{0};

}  // namespace

size_t batch_width() {
  size_t width = g_batch_width.load(std::memory_order_relaxed);
  if (width == 0) {
    width = batch_width_from_env();
    g_batch_width.store(width, std::memory_order_relaxed);
  }
  return width;
}

void set_batch_width(size_t width) {
  if (width == 0) {
    g_batch_width.store(0, std::memory_order_relaxed);
    return;
  }
  g_batch_width.store(std::min(std::max<size_t>(width, 1), kMaxBatchLanes),
                      std::memory_order_relaxed);
}

PathArenaStats path_arena_stats() {
  PathArenaStats stats;
  stats.paths = g_arena_paths.load(std::memory_order_relaxed);
  stats.hops = g_arena_hops.load(std::memory_order_relaxed);
  stats.shared_hops = g_arena_shared_hops.load(std::memory_order_relaxed);
  return stats;
}

void BatchWorkspace::begin(size_t n_ases, size_t lane_count) {
  n = n_ases;
  lanes = lane_count;
  key.assign(n * lanes, kLaneUnseen);
  cust_mask.assign(n, 0);
  reach_mask.assign(n, 0);
  fmask.assign(n, 0);
  cmask.assign(n, 0);
  drop_cust.assign(n, 0);
  drop_peer.assign(n, 0);
  drop_prov.assign(n, 0);
  frontier.clear();
  next.clear();
  touched.clear();
}

void BatchWorkspace::seed_origin(int32_t id, size_t lane) {
  const size_t v = static_cast<size_t>(id);
  key[v * lanes + lane] = 0;  // priority 0, distance 0: never displaced
  const uint64_t bit = 1ull << lane;
  if (fmask[v] == 0) frontier.push_back(id);
  fmask[v] |= bit;
  if (reach_mask[v] == 0) touched.push_back(id);
  reach_mask[v] |= bit;
  cust_mask[v] |= bit;
}

// Mutable engine state: the lazily built per-class drop masks and the
// cross-stage propagation cache. Held by pointer so PropagationSim stays
// movable despite the mutexes/atomics.
struct PropagationSim::State {
  // Drop masks: for each (class, adjacency), one bit per AS ("this AS
  // drops this class on this adjacency"). Built lazily under mask_mutex
  // on first propagate after a policy change; masks_ready publishes.
  std::mutex mask_mutex;
  std::atomic<bool> masks_ready{false};
  size_t words = 0;            // 64-bit words per bitset
  uint16_t variant_slots = 1;  // max strictness + 1; variants clamp here
  std::vector<uint64_t> drop_masks;
  // Effective drop signature per class: classes with identical masks
  // share a signature, and with it a propagation cache slot. Signature 0
  // is the all-zero (nothing drops) signature of the valid class.
  std::vector<uint16_t> sig_of_class;
  // Representative class per signature (sig_reps[s]'s mask block IS
  // signature s's block). apply_delta() rekeys surviving cache entries by
  // comparing old blocks against these.
  std::vector<size_t> sig_reps;

  // Memoized results keyed by (origin_id << 16) | signature.
  std::mutex cache_mutex;
  std::unordered_map<uint64_t, PropagationResultPtr> cache;
  size_t cache_bytes = 0;
  size_t cache_capacity = cache_capacity_from_env();
  std::atomic<bool> cache_enabled{true};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> invalidated{0};  // dropped by apply_delta migrations
};

PropagationSim::PropagationSim(const astopo::AsGraph& graph)
    : indexer_(graph), state_(std::make_unique<State>()) {
  const size_t n = indexer_.size();
  policies_.resize(n);
  lane_hop_bits_ = static_cast<int>(std::bit_width(n));

  // CSR adjacency, built in one counting pass + one fill pass per role.
  // graph neighbor lists hold ASNs; ids are ASN-ascending, so sorting the
  // mapped ids reproduces the deterministic ASN-ascending neighbor order.
  auto build = [&](Csr& csr, auto&& neighbors_of) {
    csr.offsets.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      csr.offsets[i + 1] =
          csr.offsets[i] +
          static_cast<uint32_t>(
              neighbors_of(indexer_.asn_of(static_cast<int32_t>(i))).size());
    }
    csr.edges.resize(csr.offsets[n]);
    for (size_t i = 0; i < n; ++i) {
      int32_t* out = csr.edges.data() + csr.offsets[i];
      for (net::Asn neighbor :
           neighbors_of(indexer_.asn_of(static_cast<int32_t>(i)))) {
        *out++ = indexer_.id_of(neighbor);
      }
      std::sort(csr.edges.data() + csr.offsets[i],
                csr.edges.data() + csr.offsets[i + 1]);
    }
  };
  build(providers_, [&](net::Asn a) -> const std::vector<net::Asn>& {
    return graph.providers(a);
  });
  build(customers_, [&](net::Asn a) -> const std::vector<net::Asn>& {
    return graph.customers(a);
  });
  build(peers_, [&](net::Asn a) -> const std::vector<net::Asn>& {
    return graph.peers(a);
  });

  rebuild_descent_order();
}

// Provider-before-customer topological order (Kahn over the p2c DAG),
// seeded in ascending id order so the order is deterministic, and the
// lane keys' route-distance bound. Re-run by apply_delta() after edge
// growth.
void PropagationSim::rebuild_descent_order() {
  const size_t n = indexer_.size();
  descent_order_.clear();
  descent_order_.reserve(n);
  std::vector<uint32_t> pending(n);
  std::vector<uint32_t> depth(n, 0);  // longest p2c chain from a root
  for (size_t i = 0; i < n; ++i) {
    pending[i] = providers_.offsets[i + 1] - providers_.offsets[i];
    if (pending[i] == 0) descent_order_.push_back(static_cast<int32_t>(i));
  }
  uint32_t longest_chain = 0;
  for (size_t head = 0; head < descent_order_.size(); ++head) {
    const int32_t u = descent_order_[head];
    const uint32_t below = depth[static_cast<size_t>(u)] + 1;
    const int32_t* e = customers_.begin(u);
    const int32_t* const e_end = customers_.end(u);
    for (; e != e_end; ++e) {
      const size_t c = static_cast<size_t>(*e);
      depth[c] = std::max(depth[c], below);
      longest_chain = std::max(longest_chain, below);
      if (--pending[c] == 0) descent_order_.push_back(*e);
    }
  }
  descent_is_dag_ = descent_order_.size() == n;
  // A valley-free route climbs at most one p2c chain, takes at most one
  // peer hop and descends at most one chain; with a p2c cycle only
  // simplicity bounds it.
  lane_dist_bound_ = descent_is_dag_
                         ? 2 * longest_chain + 1
                         : static_cast<uint32_t>(n > 0 ? n - 1 : 0);
  if (!descent_is_dag_) {
    for (size_t i = 0; i < n; ++i) {
      if (pending[i] != 0) descent_order_.push_back(static_cast<int32_t>(i));
    }
  }
}

PropagationSim::~PropagationSim() = default;
PropagationSim::PropagationSim(PropagationSim&&) noexcept = default;
PropagationSim& PropagationSim::operator=(PropagationSim&&) noexcept = default;

void PropagationSim::set_policy(net::Asn asn, const FilterPolicy& policy) {
  int32_t id = indexer_.id_of(asn);
  if (id < 0) return;
  policies_[static_cast<size_t>(id)] = policy;
  state_->masks_ready.store(false, std::memory_order_release);
  clear_cache();
}

const FilterPolicy& PropagationSim::policy(net::Asn asn) const {
  static const FilterPolicy kDefault;
  int32_t id = indexer_.id_of(asn);
  return id >= 0 ? policies_[static_cast<size_t>(id)] : kDefault;
}

SimDeltaStats PropagationSim::apply_delta(const SimDelta& delta) {
  State& st = *state_;
  SimDeltaStats stats;
  if (delta.empty()) {
    std::lock_guard<std::mutex> lock(st.cache_mutex);
    stats.entries_before = st.cache.size();
    stats.entries_kept = st.cache.size();
    return stats;
  }

  const size_t n = indexer_.size();

  // Snapshot the pre-delta signature mask blocks; the rekey step matches
  // them byte-for-byte against the rebuilt blocks. A non-empty cache
  // implies masks were built (every cached insert goes through
  // ensure_masks), so an unbuilt-mask state migrates nothing.
  const bool had_masks = st.masks_ready.load(std::memory_order_acquire);
  std::vector<std::vector<uint64_t>> old_blocks;
  if (had_masks) {
    old_blocks.reserve(st.sig_reps.size());
    for (size_t rep : st.sig_reps) {
      const uint64_t* block = st.drop_masks.data() + rep * 3 * st.words;
      old_blocks.emplace_back(block, block + 3 * st.words);
    }
  }

  // Policies land in place -- set_policy would clear the cache wholesale,
  // which is exactly what this path avoids.
  for (const SimDelta::PolicyChange& pc : delta.policies) {
    const int32_t id = indexer_.id_of(pc.asn);
    if (id >= 0) policies_[static_cast<size_t>(id)] = pc.policy;
  }

  // Edge growth: collect per-role adjacency additions (skipping edges
  // already present), merge-rebuild each touched CSR, and remember the
  // new edges for the per-entry candidate test below.
  struct NewEdge {
    int32_t u;  // provider for p2c
    int32_t v;
    bool p2c;
  };
  std::vector<NewEdge> new_edges;
  std::vector<std::pair<int32_t, int32_t>> add_prov, add_cust, add_peer;
  auto has_edge = [](const Csr& csr, int32_t from, int32_t to) {
    return std::binary_search(csr.begin(from), csr.end(from), to);
  };
  for (const SimDelta::EdgeAdd& ea : delta.edges) {
    const int32_t a = indexer_.id_of(ea.a);
    const int32_t b = indexer_.id_of(ea.b);
    if (a < 0 || b < 0 || a == b) continue;
    if (ea.rel == astopo::Relationship::kProviderCustomer) {
      if (has_edge(customers_, a, b)) continue;
      add_cust.emplace_back(a, b);
      add_prov.emplace_back(b, a);
      new_edges.push_back(NewEdge{a, b, true});
    } else {
      if (has_edge(peers_, a, b)) continue;
      add_peer.emplace_back(a, b);
      add_peer.emplace_back(b, a);
      new_edges.push_back(NewEdge{a, b, false});
    }
  }
  auto csr_merge = [&](Csr& csr, std::vector<std::pair<int32_t, int32_t>>& adds) {
    if (adds.empty()) return;
    std::sort(adds.begin(), adds.end());
    adds.erase(std::unique(adds.begin(), adds.end()), adds.end());
    Csr merged;
    merged.offsets.assign(n + 1, 0);
    size_t ai = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t extra = 0;
      while (ai < adds.size() &&
             adds[ai].first == static_cast<int32_t>(i)) {
        ++extra;
        ++ai;
      }
      merged.offsets[i + 1] =
          merged.offsets[i] + (csr.offsets[i + 1] - csr.offsets[i]) + extra;
    }
    merged.edges.resize(merged.offsets[n]);
    ai = 0;
    for (size_t i = 0; i < n; ++i) {
      int32_t* out = merged.edges.data() + merged.offsets[i];
      const int32_t* ob = csr.edges.data() + csr.offsets[i];
      const int32_t* const oe = csr.edges.data() + csr.offsets[i + 1];
      while (ob != oe || (ai < adds.size() &&
                          adds[ai].first == static_cast<int32_t>(i))) {
        const bool take_add =
            ai < adds.size() && adds[ai].first == static_cast<int32_t>(i) &&
            (ob == oe || adds[ai].second < *ob);
        if (take_add) {
          *out++ = adds[ai++].second;
        } else {
          *out++ = *ob++;
        }
      }
    }
    csr = std::move(merged);
  };
  csr_merge(providers_, add_prov);
  csr_merge(customers_, add_cust);
  csr_merge(peers_, add_peer);
  if (!new_edges.empty()) rebuild_descent_order();

  // Rebuild masks + signatures only when policies moved; edge growth
  // leaves the (per-AS, per-class) drop decisions untouched.
  if (!delta.policies.empty()) {
    st.masks_ready.store(false, std::memory_order_release);
  }
  ensure_masks();

  // Migrate the cache under the lock: rekey by mask-block bytes, then run
  // the candidate test for every surviving entry against the new edges.
  std::lock_guard<std::mutex> lock(st.cache_mutex);
  stats.entries_before = st.cache.size();
  if (st.cache.empty()) return stats;

  // old signature -> new signature wherever the 3*words-u64 mask block is
  // byte-identical. Injective by construction: blocks are mutually
  // distinct on both sides, so rekeying never collides.
  std::vector<int32_t> sig_map(old_blocks.size(), -1);
  for (size_t os = 0; os < old_blocks.size(); ++os) {
    for (size_t ns = 0; ns < st.sig_reps.size(); ++ns) {
      const uint64_t* block =
          st.drop_masks.data() + st.sig_reps[ns] * 3 * st.words;
      if (std::equal(old_blocks[os].begin(), old_blocks[os].end(), block)) {
        sig_map[os] = static_cast<int32_t>(ns);
        break;
      }
    }
  }

  // The priority field of the packed order key the lane engine folds
  // over (priority, distance, next hop) for a route learned from `src`.
  auto prio_of = [](RouteSource src) -> uint32_t {
    switch (src) {
      case RouteSource::kOrigin:
        return 0;
      case RouteSource::kCustomer:
        return kLaneCustomerPrio;
      case RouteSource::kPeer:
        return kLanePeerPrio;
      case RouteSource::kProvider:
        return kLaneProviderPrio;
      case RouteSource::kNone:
        break;
    }
    return kLaneUnseen;
  };

  // Does any new edge offer either endpoint a better key than the cached
  // result holds? If not, the old result is still a fixpoint of the grown
  // graph (the new offers are the only new terms in the endpoint
  // equations, and every other node's equation is untouched), and the
  // unique stable solution, so it is byte-identical to a cold rebuild.
  auto improved = [&](const PropagationResult& res, uint16_t new_sig) {
    const size_t rep = st.sig_reps[new_sig];
    const uint64_t* drop_cust =
        st.drop_masks.data() + (rep * 3 + kDropCustomer) * st.words;
    const uint64_t* drop_peer =
        st.drop_masks.data() + (rep * 3 + kDropPeer) * st.words;
    const uint64_t* drop_prov =
        st.drop_masks.data() + (rep * 3 + kDropProvider) * st.words;
    // Offer across one direction: `restricted` is the valley-free export
    // rule (only origin/customer routes go to peers and providers);
    // `drop_at_to` is the receiver's ingress filter for this adjacency.
    auto offer_beats = [&](int32_t from, int32_t to, uint32_t prio,
                           const uint64_t* drop_at_to, bool restricted) {
      const RouteSource src = res.source(from);
      if (src == RouteSource::kNone) return false;
      if (restricted && src != RouteSource::kOrigin &&
          src != RouteSource::kCustomer) {
        return false;
      }
      if (test_bit(drop_at_to, to)) return false;
      // The offer's key (prio, distance(from) + 1, from) against `to`'s
      // current key, field by field. Distances are chain walks, so they
      // are read only when the priorities tie.
      const RouteSource have = res.source(to);
      if (have == RouteSource::kNone) return true;
      const uint32_t have_prio = prio_of(have);
      if (prio != have_prio) return prio < have_prio;
      const uint32_t cand_dist = res.distance(from) + 1u;
      const uint32_t have_dist = res.distance(to);
      if (cand_dist != have_dist) return cand_dist < have_dist;
      return from < res.next_hop(to);
    };
    for (const NewEdge& e : new_edges) {
      if (e.p2c) {
        // v learns from its new provider u; u learns from its customer v.
        if (offer_beats(e.u, e.v, kLaneProviderPrio, drop_prov, false)) {
          return true;
        }
        if (offer_beats(e.v, e.u, kLaneCustomerPrio, drop_cust, true)) {
          return true;
        }
      } else {
        if (offer_beats(e.u, e.v, kLanePeerPrio, drop_peer, true)) return true;
        if (offer_beats(e.v, e.u, kLanePeerPrio, drop_peer, true)) return true;
      }
    }
    return false;
  };

  std::unordered_map<uint64_t, PropagationResultPtr> migrated;
  migrated.reserve(st.cache.size());
  uint64_t dropped = 0;
  // lint-ok: order-independent fold (dropped is a count, migrated is keyed by the unique rekeyed cache key)
  for (const auto& [key, result] : st.cache) {
    const uint64_t origin_part = key >> 16;
    const size_t old_sig = key & 0xffff;
    const int32_t new_sig =
        old_sig < sig_map.size() ? sig_map[old_sig] : -1;
    if (new_sig < 0 || improved(*result, static_cast<uint16_t>(new_sig))) {
      ++dropped;
      continue;
    }
    migrated.emplace(
        (origin_part << 16) | static_cast<uint16_t>(new_sig), result);
  }
  st.cache = std::move(migrated);
  st.cache_bytes = st.cache.size() * cache_entry_bytes(n);
  st.invalidated.fetch_add(dropped, std::memory_order_relaxed);
  stats.entries_invalidated = static_cast<size_t>(dropped);
  stats.entries_kept = st.cache.size();
  return stats;
}

void PropagationSim::ensure_masks() const {
  State& st = *state_;
  if (st.masks_ready.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(st.mask_mutex);
  if (st.masks_ready.load(std::memory_order_relaxed)) return;

  const size_t n = indexer_.size();
  st.words = (n + 63) / 64;

  // Variants at or above every strictness behave identically, so the
  // class space only needs max-strictness + 1 variant slots.
  uint8_t vmax = 0;
  for (const FilterPolicy& p : policies_) {
    vmax = std::max(vmax, std::max(p.customer_strictness, p.peer_strictness));
  }
  st.variant_slots = static_cast<uint16_t>(vmax) + 1;
  const size_t classes = 1 + 3 * static_cast<size_t>(st.variant_slots);

  st.drop_masks.assign(classes * 3 * st.words, 0);
  for (size_t u = 0; u < n; ++u) {
    const FilterPolicy& p = policies_[u];
    if (!p.rov && p.customer_strictness == 0 && p.peer_strictness == 0) {
      continue;  // filters nothing: leaves every bit clear
    }
    const size_t word = u >> 6;
    const uint64_t bit = 1ull << (u & 63);
    for (size_t c = 1; c < classes; ++c) {
      const size_t pair = (c - 1) / st.variant_slots;  // 0 rpki, 1 irr, 2 both
      AnnouncementClass cls;
      cls.rpki_invalid = pair != 1;
      cls.irr_invalid = pair != 0;
      cls.variant = static_cast<uint8_t>((c - 1) % st.variant_slots);
      const size_t base = c * 3 * st.words;
      if (drops(p, RouteSource::kCustomer, cls)) {
        st.drop_masks[base + kDropCustomer * st.words + word] |= bit;
      }
      if (drops(p, RouteSource::kPeer, cls)) {
        st.drop_masks[base + kDropPeer * st.words + word] |= bit;
      }
      if (drops(p, RouteSource::kProvider, cls)) {
        st.drop_masks[base + kDropProvider * st.words + word] |= bit;
      }
    }
  }

  // Collapse classes with identical masks onto shared signatures. The
  // representative list is kept in State: apply_delta() rekeys cache
  // entries by comparing pre-delta signature blocks against it.
  st.sig_of_class.assign(classes, 0);
  std::vector<size_t>& reps = st.sig_reps;
  reps.clear();
  for (size_t c = 0; c < classes; ++c) {
    const uint64_t* mine = st.drop_masks.data() + c * 3 * st.words;
    uint16_t sig = 0;
    bool found = false;
    for (size_t r = 0; r < reps.size(); ++r) {
      const uint64_t* rep = st.drop_masks.data() + reps[r] * 3 * st.words;
      if (std::equal(mine, mine + 3 * st.words, rep)) {
        sig = static_cast<uint16_t>(r);
        found = true;
        break;
      }
    }
    if (!found) {
      sig = static_cast<uint16_t>(reps.size());
      reps.push_back(c);
    }
    st.sig_of_class[c] = sig;
  }

  st.masks_ready.store(true, std::memory_order_release);
}

size_t PropagationSim::class_index(const AnnouncementClass& cls) const {
  if (!cls.rpki_invalid && !cls.irr_invalid) return 0;
  const size_t pair = cls.rpki_invalid ? (cls.irr_invalid ? 2 : 0) : 1;
  const uint16_t slots = state_->variant_slots;
  const uint16_t v = std::min<uint16_t>(cls.variant, slots - 1);
  return 1 + pair * slots + v;
}

const uint64_t* PropagationSim::mask_for(size_t cls_index,
                                         size_t adjacency) const {
  return state_->drop_masks.data() +
         (cls_index * 3 + adjacency) * state_->words;
}

namespace {

// ---- Phase-3 pull fold: one AS's provider candidates -------------------
// Both variants implement the same fold. For AS v (lane keys kv) and each
// provider u, the candidate in lane l is
//
//     (provider | dist_u[l] + 1 | u)     packed as one order key,
//
// skipped when lane l never reached u or v's policy drops this class on
// provider adjacencies; v keeps the minimum of its own key and every
// candidate. The distance field is extracted by masking (all route keys
// keep it in bits [29:h]); the +1 cannot carry into the priority bits
// (require_lane_distance_fits). Returns whether any lane of v improved --
// only consulted when the p2c graph has a cycle.
bool pull_providers_scalar(const int32_t* p, const int32_t* const p_end,
                           const uint32_t* key, uint32_t* kv, size_t W,
                           uint64_t drop, int hop_bits) {
  const uint32_t dist_field = lane_dist_field(hop_bits);
  const uint32_t step = 1u << hop_bits;
  uint32_t any = 0;
  for (; p != p_end; ++p) {
    const uint32_t* const ku = key + static_cast<size_t>(*p) * W;
    const uint32_t base = kLaneProviderPrio | static_cast<uint32_t>(*p);
    for (size_t l = 0; l < W; ++l) {
      const uint32_t k_u = ku[l];
      const uint32_t cand = ((k_u & dist_field) + step) | base;
      const bool blocked = k_u == kLaneUnseen || ((drop >> l) & 1) != 0;
      const uint32_t offer = blocked ? kLaneUnseen : cand;
      const uint32_t have = kv[l];
      any |= static_cast<uint32_t>(offer < have);
      kv[l] = std::min(have, offer);
    }
  }
  return any != 0;
}

#if defined(__GNUC__) && defined(__x86_64__)
#define MANRS_LANES_AVX2 1

// 8-wide variant: v's lane block is folded group by group, with the
// whole provider list folded in registers before each group is stored
// back once. A blocked lane ORs its candidate up to all ones (unseen), so
// each provider costs one unsigned min. Requires W % 8 == 0 (a vector
// tail would read into the next AS's lanes).
__attribute__((target("avx2"))) bool pull_providers_avx2(
    const int32_t* const p_begin, const int32_t* const p_end,
    const uint32_t* key, uint32_t* kv, size_t W, uint64_t drop,
    int hop_bits) {
  const __m256i unseen = _mm256_set1_epi32(-1);
  const __m256i dist_field =
      _mm256_set1_epi32(static_cast<int>(lane_dist_field(hop_bits)));
  const __m256i step = _mm256_set1_epi32(1 << hop_bits);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lane_shift = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i any = _mm256_setzero_si256();
  // The __m256i* casts below are the x86 intrinsic load/store idiom over
  // the lane-key array; __m256i aliases any object type by design.
  for (size_t g = 0; g < W; g += 8) {
    const __m256i before = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kv + g));  // lint-ok: intrinsic load
    __m256i have = before;
    // Dropped lanes (rare: only filtered classes set bits) force the
    // candidate to unseen via the expanded mask.
    __m256i dropmask = _mm256_setzero_si256();
    const uint32_t group_drop = static_cast<uint32_t>(drop >> g) & 0xffu;
    if (group_drop != 0) {
      const __m256i bits = _mm256_and_si256(
          _mm256_srlv_epi32(
              _mm256_set1_epi32(static_cast<int>(group_drop)), lane_shift),
          one);
      dropmask = _mm256_cmpeq_epi32(bits, one);
    }
    for (const int32_t* p = p_begin; p != p_end; ++p) {
      const uint32_t* const ku = key + static_cast<size_t>(*p) * W;
      const __m256i k_u = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ku + g));  // lint-ok: intrinsic load
      const __m256i base = _mm256_set1_epi32(static_cast<int>(
          kLaneProviderPrio | static_cast<uint32_t>(*p)));
      const __m256i cand = _mm256_or_si256(
          _mm256_add_epi32(_mm256_and_si256(k_u, dist_field), step), base);
      const __m256i blocked =
          _mm256_or_si256(_mm256_cmpeq_epi32(k_u, unseen), dropmask);
      have = _mm256_min_epu32(have, _mm256_or_si256(cand, blocked));
    }
    any = _mm256_or_si256(any, _mm256_xor_si256(have, before));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(kv + g), have);  // lint-ok: intrinsic store
  }
  return _mm256_testz_si256(any, any) == 0;
}

// Key -> result-word decode for lane blocks of 8: eight ASes' keys of
// one lane group are decoded in registers (the source table is a
// permute), transposed 8 x 8, and stored as eight consecutive words to
// each of the group's lane streams. Requires W % 8 == 0; returns how many
// leading ASes it decoded (whole blocks of 8), leaving the rest to the
// scalar loop.
__attribute__((target("avx2"))) size_t decode_lanes_avx2(
    const uint32_t* key, size_t n, size_t W, uint32_t hop_mask,
    uint32_t* const* words_of) {
  const __m256i table =
      _mm256_setr_epi32(static_cast<int>(kLaneSourceBits[0]),
                        static_cast<int>(kLaneSourceBits[1]),
                        static_cast<int>(kLaneSourceBits[2]),
                        static_cast<int>(kLaneSourceBits[3]), 0, 0, 0, 0);
  const __m256i hop = _mm256_set1_epi32(static_cast<int>(hop_mask));
  const __m256i unseen = _mm256_set1_epi32(-1);
  const __m256i unreached =
      _mm256_set1_epi32(static_cast<int>(kUnreachedWord));
  const size_t blocks_end = n & ~size_t{7};
  for (size_t i = 0; i < blocks_end; i += 8) {
    for (size_t g = 0; g < W; g += 8) {
      __m256i r[8];  // r[j]: AS i + j, lanes g .. g + 7
      for (size_t j = 0; j < 8; ++j) {
        const uint32_t* const kj = key + (i + j) * W + g;
        const __m256i k = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(kj));  // lint-ok: intrinsic load
        const __m256i word = _mm256_or_si256(
            _mm256_permutevar8x32_epi32(table,
                                        _mm256_srli_epi32(k, kLanePrioShift)),
            _mm256_and_si256(k, hop));
        r[j] = _mm256_blendv_epi8(word, unreached,
                                  _mm256_cmpeq_epi32(k, unseen));
      }
      const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
      const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
      const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
      const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
      const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
      const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
      const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
      const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
      const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
      const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
      const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
      const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
      const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
      const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
      const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
      const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
      // lane[l]: lane g + l, ASes i .. i + 7
      const __m256i lane[8] = {
          _mm256_permute2x128_si256(u0, u4, 0x20),
          _mm256_permute2x128_si256(u1, u5, 0x20),
          _mm256_permute2x128_si256(u2, u6, 0x20),
          _mm256_permute2x128_si256(u3, u7, 0x20),
          _mm256_permute2x128_si256(u0, u4, 0x31),
          _mm256_permute2x128_si256(u1, u5, 0x31),
          _mm256_permute2x128_si256(u2, u6, 0x31),
          _mm256_permute2x128_si256(u3, u7, 0x31),
      };
      for (size_t l = 0; l < 8; ++l) {
        // lint-ok: intrinsic store
        __m256i* const out = reinterpret_cast<__m256i*>(words_of[g + l] + i);
        _mm256_storeu_si256(out, lane[l]);
      }
    }
  }
  return blocks_end;
}

const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;
#endif  // __GNUC__ && __x86_64__

}  // namespace

void PropagationSim::propagate_lanes(const int32_t* origin_ids,
                                     const size_t* cls_indices, size_t lanes,
                                     BatchWorkspace& ws,
                                     PropagationResult* const* results) const {
  const size_t n = indexer_.size();
  const size_t W = lanes;
  ws.begin(n, W);

  // Scatter the per-class packed drop bitsets into per-AS lane masks, one
  // pass per *distinct* class in the batch (lanes sharing a class index
  // share the scatter): after this, the inner-loop filter check is
  // `frontier_lanes & ~drop_*[v]` -- one AND-NOT per lane word.
  {
    size_t distinct_cls[kMaxBatchLanes];
    uint64_t cls_lanes[kMaxBatchLanes];
    size_t distinct = 0;
    for (size_t l = 0; l < W; ++l) {
      size_t d = 0;
      while (d < distinct && distinct_cls[d] != cls_indices[l]) ++d;
      if (d == distinct) {
        distinct_cls[d] = cls_indices[l];
        cls_lanes[d] = 0;
        ++distinct;
      }
      cls_lanes[d] |= 1ull << l;
    }
    const size_t words = (n + 63) / 64;
    uint64_t* const lane_masks[3] = {ws.drop_cust.data(), ws.drop_peer.data(),
                                     ws.drop_prov.data()};
    for (size_t d = 0; d < distinct; ++d) {
      for (size_t adj = 0; adj < 3; ++adj) {
        const uint64_t* mask = mask_for(distinct_cls[d], adj);
        uint64_t* out = lane_masks[adj];
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = mask[w];
          while (bits != 0) {
            const int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            out[(w << 6) + static_cast<size_t>(b)] |= cls_lanes[d];
          }
        }
      }
    }
  }

  for (size_t l = 0; l < W; ++l) ws.seed_origin(origin_ids[l], l);

  uint32_t* const key = ws.key.data();
  uint64_t* const fmask = ws.fmask.data();
  uint64_t* const cmask = ws.cmask.data();
  uint64_t* const cust_mask = ws.cust_mask.data();
  uint64_t* const reach_mask = ws.reach_mask.data();
  const uint64_t* const drop_cust = ws.drop_cust.data();
  const uint64_t* const drop_peer = ws.drop_peer.data();
  const uint64_t* const drop_prov = ws.drop_prov.data();
  const int hop_bits = lane_hop_bits_;
  const uint32_t dist_field = lane_dist_field(hop_bits);
  const uint32_t dist_step = 1u << hop_bits;
#ifdef MANRS_LANES_AVX2
  const bool use_avx2 = kHaveAvx2 && W % 8 == 0;
#endif

  // ---- Phase 1: customer routes climb provider edges -------------------
  // Level-synchronous BFS over (AS, lane) pairs. A level-d frontier AS
  // offers the lane-invariant candidate (customer | d+1 | u) to each
  // provider; the min-fold is exactly first-install BFS: first install
  // wins the lane, same-level revisits can only lower the next-hop id
  // (the hop field is the low h bits), and earlier-level keys always
  // compare smaller. Next-level membership accumulates in cmask so a
  // frontier AS re-offered *during* its own level keeps its current mask.
  {
    std::vector<int32_t>& cur = ws.frontier;
    std::vector<int32_t>& nxt = ws.next;
    uint32_t level = 0;
    while (!cur.empty()) {
      nxt.clear();
      const uint32_t cand_base = kLaneCustomerPrio | ((level + 1) << hop_bits);
      for (const int32_t u : cur) {
        const uint64_t m = fmask[static_cast<size_t>(u)];
        fmask[static_cast<size_t>(u)] = 0;
        const uint32_t cand = cand_base | static_cast<uint32_t>(u);
        const int32_t* e = providers_.begin(u);
        const int32_t* const e_end = providers_.end(u);
        for (; e != e_end; ++e) {
          const size_t v = static_cast<size_t>(*e);
          uint64_t active = m & ~drop_cust[v];
          if (active == 0) continue;
          uint32_t* const kv = key + v * W;
          uint64_t newbits = 0;
          do {
            const size_t l = static_cast<size_t>(__builtin_ctzll(active));
            active &= active - 1;
            // Branch-free: cand < kLaneUnseen always, so an unseen lane
            // both takes the candidate and records first-install.
            const uint32_t have = kv[l];
            kv[l] = std::min(have, cand);
            newbits |= static_cast<uint64_t>(have == kLaneUnseen) << l;
          } while (active != 0);
          if (newbits != 0) {
            if (cmask[v] == 0) nxt.push_back(static_cast<int32_t>(v));
            cmask[v] |= newbits;
            cust_mask[v] |= newbits;
            if (reach_mask[v] == 0) ws.touched.push_back(static_cast<int32_t>(v));
            reach_mask[v] |= newbits;
          }
        }
      }
      for (const int32_t v : nxt) {
        fmask[static_cast<size_t>(v)] = cmask[static_cast<size_t>(v)];
        cmask[static_cast<size_t>(v)] = 0;
      }
      std::swap(cur, nxt);
      ++level;
    }
  }

  // ---- Phase 2: one lateral hop across peer edges ----------------------
  // Offers come only from lanes holding customer/origin routes (cust_mask
  // over the phase-1 touched prefix -- peer routes are never re-exported
  // to peers). The immediate min-fold equals collecting every offer and
  // then applying the best: the priority field rejects folds into
  // customer-routed lanes, and min keeps the (distance, from-id) minimum
  // among peer offers. Newly reached ASes extend the touched list.
  const size_t phase1_touched = ws.touched.size();
  for (size_t t = 0; t < phase1_touched; ++t) {
    const int32_t u = ws.touched[t];
    const uint64_t m = cust_mask[static_cast<size_t>(u)];
    const uint32_t* const ku = key + static_cast<size_t>(u) * W;
    const int32_t* e = peers_.begin(u);
    const int32_t* const e_end = peers_.end(u);
    for (; e != e_end; ++e) {
      const size_t v = static_cast<size_t>(*e);
      uint64_t active = m & ~drop_peer[v];
      if (active == 0) continue;
      uint32_t* const kv = key + v * W;
      do {
        const size_t l = static_cast<size_t>(__builtin_ctzll(active));
        active &= active - 1;
        const uint32_t cand = kLanePeerPrio |
                              ((ku[l] & dist_field) + dist_step) |
                              static_cast<uint32_t>(u);
        const uint32_t have = kv[l];
        if (have == kLaneUnseen) {
          kv[l] = cand;
          if (reach_mask[v] == 0) ws.touched.push_back(static_cast<int32_t>(v));
          reach_mask[v] |= 1ull << l;
        } else if (cand < have) {
          kv[l] = cand;
        }
      } while (active != 0);
    }
  }

  // ---- Phase 3: routes descend customer edges --------------------------
  // Pull-based: ASes are visited in provider-before-customer topological
  // order (precomputed at construction), so every provider's key is final
  // when its customers read it and each p2c edge is crossed exactly once
  // per sweep. The level-synchronous alternative re-visits an AS once per
  // distinct lane level -- lanes place their origins at different depths
  // -- which made the descent cost scale with the lane count. Results are
  // identical: the descent recurrence
  //
  //     key_v = min(seed_v, min over providers u of candidate(key_u))
  //
  // is monotone with a unique least fixpoint, which any evaluation order
  // reaches; one topological pass suffices on a DAG, and the rare cyclic
  // graph re-runs the pass until no key improves.
  {
    for (;;) {
      bool changed = false;
      for (const int32_t vi : descent_order_) {
        const int32_t* const p = providers_.begin(vi);
        const int32_t* const p_end = providers_.end(vi);
        if (p == p_end) continue;
        uint32_t* const kv = key + static_cast<size_t>(vi) * W;
        const uint64_t drop = drop_prov[static_cast<size_t>(vi)];
#ifdef MANRS_LANES_AVX2
        if (use_avx2) {
          changed |= pull_providers_avx2(p, p_end, key, kv, W, drop, hop_bits);
          continue;
        }
#endif
        changed |= pull_providers_scalar(p, p_end, key, kv, W, drop, hop_bits);
      }
      if (descent_is_dag_ || !changed) break;
    }
  }

  // Materialize every lane's dense result. The key block is read in
  // order, one AS's lanes at a time; the W write streams each advance one
  // word per AS (eight per AVX2 block). The priority bits index
  // kLaneSourceBits, the low h bits are the hop, and unseen keys
  // (priority 3, like provider routes) decode as unreached. Only the
  // origin's word needs patching afterwards (key 0 decodes as hop 0, not
  // kHopNone).
  const uint32_t hop_mask = dist_step - 1;
  uint32_t* words_of[kMaxBatchLanes] = {};
  for (size_t l = 0; l < W; ++l) {
    results[l]->words.resize(n);
    words_of[l] = results[l]->words.data();
  }
  size_t decoded = 0;
#ifdef MANRS_LANES_AVX2
  if (use_avx2) decoded = decode_lanes_avx2(key, n, W, hop_mask, words_of);
#endif
  for (size_t i = decoded; i < n; ++i) {
    const uint32_t* const ki = key + i * W;
    for (size_t l = 0; l < W; ++l) {
      const uint32_t k = ki[l];
      const uint32_t word =
          kLaneSourceBits[k >> kLanePrioShift] | (k & hop_mask);
      words_of[l][i] = k == kLaneUnseen ? kUnreachedWord : word;
    }
  }
  for (size_t l = 0; l < W; ++l) {
    words_of[l][static_cast<size_t>(origin_ids[l])] = kOriginWord;
  }
}

std::vector<PropagationResult> PropagationSim::propagate_batch(
    const std::vector<PropagationRequest>& requests) const {
  static thread_local BatchWorkspace tl_batch_workspace;
  return propagate_batch(requests, tl_batch_workspace);
}

std::vector<PropagationResult> PropagationSim::propagate_batch(
    const std::vector<PropagationRequest>& requests,
    BatchWorkspace& workspace) const {
  const size_t n = indexer_.size();
  std::vector<PropagationResult> out(requests.size());
  std::vector<size_t> live;  // request slots with a known origin
  live.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    if (indexer_.id_of(requests[r].origin) < 0) {
      out[r] = unreached_result(n);
    } else {
      live.push_back(r);
    }
  }
  if (live.empty()) return out;
  require_lane_distance_fits(lane_hop_bits_, lane_dist_bound_);
  ensure_masks();  // class_index reads the lazily built variant-slot count

  const size_t width = batch_width();
  int32_t ids[kMaxBatchLanes];
  size_t cls[kMaxBatchLanes];
  PropagationResult* res[kMaxBatchLanes];
  for (size_t b = 0; b < live.size(); b += width) {
    const size_t lanes = std::min(width, live.size() - b);
    for (size_t l = 0; l < lanes; ++l) {
      const PropagationRequest& req = requests[live[b + l]];
      ids[l] = indexer_.id_of(req.origin);
      cls[l] = class_index(req.cls);
      res[l] = &out[live[b + l]];
    }
    propagate_lanes(ids, cls, lanes, workspace, res);
  }
  return out;
}

PropagationResult PropagationSim::propagate(
    net::Asn origin, const AnnouncementClass& cls) const {
  return std::move(propagate_batch({PropagationRequest{origin, cls}})[0]);
}

PropagationResultPtr PropagationSim::propagate_cached(
    net::Asn origin, const AnnouncementClass& cls) const {
  return propagate_cached({PropagationRequest{origin, cls}})[0];
}

std::vector<PropagationResultPtr> PropagationSim::propagate_cached(
    const std::vector<PropagationRequest>& requests) const {
  State& st = *state_;
  const size_t n = indexer_.size();
  std::vector<PropagationResultPtr> out(requests.size());
  if (requests.empty()) return out;
  ensure_masks();
  const bool enabled = st.cache_enabled.load(std::memory_order_relaxed);

  // Resolve every request to its (origin, signature) key. The first
  // occurrence of a key the memo misses becomes a pending lane; later
  // occurrences share its computation (and count as hits, exactly as the
  // same sequence of single-request calls would).
  struct Pending {
    uint64_t key;
    int32_t origin_id;
    size_t cls_index;
  };
  std::vector<Pending> pending;
  std::unordered_map<uint64_t, size_t> pending_of;
  std::vector<int64_t> slot(requests.size(), -1);
  uint64_t hit_count = 0;
  {
    std::unique_lock<std::mutex> lock(st.cache_mutex, std::defer_lock);
    if (enabled) lock.lock();
    for (size_t r = 0; r < requests.size(); ++r) {
      const int32_t origin_id = indexer_.id_of(requests[r].origin);
      if (origin_id < 0) {
        out[r] = std::make_shared<PropagationResult>(unreached_result(n));
        continue;
      }
      const size_t ci = class_index(requests[r].cls);
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(origin_id)) << 16) |
          st.sig_of_class[ci];
      if (enabled) {
        auto it = st.cache.find(key);
        if (it != st.cache.end()) {
          out[r] = it->second;
          ++hit_count;
          continue;
        }
      }
      auto [pit, fresh] = pending_of.emplace(key, pending.size());
      if (fresh) {
        pending.push_back(Pending{key, origin_id, ci});
      } else if (enabled) {
        ++hit_count;
      }
      slot[r] = static_cast<int64_t>(pit->second);
    }
  }
  if (enabled && hit_count > 0) {
    st.hits.fetch_add(hit_count, std::memory_order_relaxed);
  }
  if (pending.empty()) return out;
  require_lane_distance_fits(lane_hop_bits_, lane_dist_bound_);

  // Chunk the misses into lane sweeps and fan the sweeps out over the
  // pool; each worker reuses one thread-local lane workspace.
  const size_t width = batch_width();
  const size_t sweeps = (pending.size() + width - 1) / width;
  std::vector<std::shared_ptr<PropagationResult>> computed(pending.size());
  util::parallel_for(sweeps, [&](size_t b) {
    static thread_local BatchWorkspace tl_batch_workspace;
    const size_t begin = b * width;
    const size_t lanes = std::min(width, pending.size() - begin);
    int32_t ids[kMaxBatchLanes];
    size_t cls[kMaxBatchLanes];
    PropagationResult* res[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) {
      ids[l] = pending[begin + l].origin_id;
      cls[l] = pending[begin + l].cls_index;
      computed[b * width + l] = std::make_shared<PropagationResult>();
      res[l] = computed[b * width + l].get();
    }
    propagate_lanes(ids, cls, lanes, tl_batch_workspace, res);
  });

  std::vector<PropagationResultPtr> resolved(pending.size());
  if (enabled) {
    st.misses.fetch_add(pending.size(), std::memory_order_relaxed);
    const size_t bytes = cache_entry_bytes(n);
    std::lock_guard<std::mutex> lock(st.cache_mutex);
    for (size_t p = 0; p < pending.size(); ++p) {
      auto it = st.cache.find(pending[p].key);
      if (it != st.cache.end()) {
        resolved[p] = it->second;  // lost a race to another caller: share
        continue;
      }
      resolved[p] = std::move(computed[p]);
      if (st.cache_bytes + bytes <= st.cache_capacity) {
        st.cache.emplace(pending[p].key, resolved[p]);
        st.cache_bytes += bytes;
      }
    }
  } else {
    for (size_t p = 0; p < pending.size(); ++p) {
      resolved[p] = std::move(computed[p]);
    }
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    if (slot[r] >= 0) out[r] = resolved[static_cast<size_t>(slot[r])];
  }
  return out;
}

void PropagationSim::set_cache_enabled(bool enabled) {
  state_->cache_enabled.store(enabled, std::memory_order_relaxed);
  if (!enabled) clear_cache();
}

bool PropagationSim::cache_enabled() const {
  return state_->cache_enabled.load(std::memory_order_relaxed);
}

void PropagationSim::clear_cache() {
  std::lock_guard<std::mutex> lock(state_->cache_mutex);
  state_->cache.clear();
  state_->cache_bytes = 0;
}

PropagationCacheStats PropagationSim::cache_stats() const {
  PropagationCacheStats stats;
  stats.hits = state_->hits.load(std::memory_order_relaxed);
  stats.misses = state_->misses.load(std::memory_order_relaxed);
  stats.invalidated = state_->invalidated.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_->cache_mutex);
  stats.entries = state_->cache.size();
  stats.bytes = state_->cache_bytes;
  return stats;
}

bgp::AsPath PropagationSim::path_from(const PropagationResult& result,
                                      net::Asn vantage) const {
  return path_from(result, vantage, nullptr);
}

bgp::AsPath PropagationSim::path_from(const PropagationResult& result,
                                      net::Asn vantage,
                                      PathStatus* status) const {
  auto fail = [&](PathStatus s) {
    if (status != nullptr) *status = s;
    return bgp::AsPath{};
  };
  const int32_t id = indexer_.id_of(vantage);
  if (id < 0) return fail(PathStatus::kNoRoute);
  const size_t limit = std::min(indexer_.size(), result.size());
  if (static_cast<size_t>(id) >= limit) return fail(PathStatus::kBrokenChain);
  if (!result.reached(id)) return fail(PathStatus::kNoRoute);
  std::vector<net::Asn> hops;
  const PathStatus walked = walk_chain(result, id, limit, [&](int32_t v) {
    hops.push_back(indexer_.asn_of(v));
  });
  if (walked != PathStatus::kOk) return fail(walked);
  if (status != nullptr) *status = PathStatus::kOk;
  return bgp::AsPath(std::move(hops));
}

std::vector<PathView> PropagationSim::extract_paths(
    const PropagationResult& result, const std::vector<net::Asn>& vantages,
    PathArena& arena) const {
  const size_t limit = std::min(indexer_.size(), result.size());
  if (arena.memo_.size() < limit) {
    arena.memo_.assign(limit, PathArena::Memo{});
    arena.epoch_ = 0;
  }
  if (++arena.epoch_ == 0) {  // uint32 wrap: invalidate all stamps
    for (PathArena::Memo& m : arena.memo_) m.stamp = 0;
    arena.epoch_ = 1;
  }
  arena.hops_.clear();
  const uint32_t epoch = arena.epoch_;

  // Walks record (offset, len) spans; views materialize only after every
  // walk, so hops_ growth can never dangle an earlier span.
  std::vector<std::pair<uint32_t, uint32_t>> spans(vantages.size(), {0, 0});
  uint64_t paths = 0;
  uint64_t total_hops = 0;
  uint64_t shared_hops = 0;
  for (size_t k = 0; k < vantages.size(); ++k) {
    const int32_t id = indexer_.id_of(vantages[k]);
    if (id < 0 || static_cast<size_t>(id) >= limit) continue;
    if (!result.reached(id)) continue;
    std::vector<int32_t>& scratch = arena.scratch_;
    scratch.clear();
    int32_t current = id;
    uint32_t suffix_offset = 0;
    uint32_t suffix_len = 0;
    bool ok = false;
    // Walk the next_hop chain until the origin or a hop whose suffix this
    // result already materialized; the same bound as path_from catches
    // cycles, and any broken chain yields an empty view, like path_from.
    for (size_t steps = 0; steps <= limit; ++steps) {
      const PathArena::Memo memo = arena.memo_[static_cast<size_t>(current)];
      if (memo.stamp == epoch) {
        suffix_offset = memo.offset;
        suffix_len = memo.len;
        ok = true;
        break;
      }
      scratch.push_back(current);
      if (result.source(current) == RouteSource::kOrigin) {
        ok = true;
        break;
      }
      const int32_t next = result.next_hop(current);
      if (next < 0 || static_cast<size_t>(next) >= limit ||
          !result.reached(next)) {
        break;
      }
      current = next;
    }
    if (!ok) continue;
    const uint32_t start = static_cast<uint32_t>(arena.hops_.size());
    const uint32_t total = static_cast<uint32_t>(scratch.size()) + suffix_len;
    arena.hops_.resize(static_cast<size_t>(start) + total);
    for (size_t j = 0; j < scratch.size(); ++j) {
      arena.hops_[start + j] = indexer_.asn_of(scratch[j]);
    }
    if (suffix_len > 0) {
      net::Asn* const hops = arena.hops_.data();
      std::copy(hops + suffix_offset, hops + suffix_offset + suffix_len,
                hops + start + scratch.size());
    }
    for (size_t j = 0; j < scratch.size(); ++j) {
      arena.memo_[static_cast<size_t>(scratch[j])] = PathArena::Memo{
          start + static_cast<uint32_t>(j), total - static_cast<uint32_t>(j),
          epoch};
    }
    spans[k] = {start, total};
    ++paths;
    total_hops += total;
    shared_hops += suffix_len;
  }

  std::vector<PathView> views(vantages.size());
  for (size_t k = 0; k < vantages.size(); ++k) {
    if (spans[k].second != 0) {
      views[k] = PathView{arena.hops_.data() + spans[k].first, spans[k].second};
    }
  }
  if (paths > 0) {
    g_arena_paths.fetch_add(paths, std::memory_order_relaxed);
    g_arena_hops.fetch_add(total_hops, std::memory_order_relaxed);
    g_arena_shared_hops.fetch_add(shared_hops, std::memory_order_relaxed);
  }
  return views;
}

}  // namespace manrs::sim
