// BGP route propagation over an AS topology with Gao-Rexford policies.
//
// The paper observes the real Internet through RouteViews/RIS; this
// simulator produces the equivalent observable -- per-AS best paths toward
// each announcement -- from a synthetic topology. Routing follows the
// standard valley-free model:
//
//   * an AS prefers routes learned from customers over peers over
//     providers, then shorter AS paths, then the lowest next-hop ASN;
//   * routes learned from a customer are exported to everyone;
//   * routes learned from a peer or provider are exported only to
//     customers.
//
// That yields the classic three-phase computation (e.g. Gill et al.):
// customer routes climb provider edges, peer routes take one lateral hop,
// then routes descend customer edges. Each phase is O(V+E), so a full
// propagation is linear -- cheap enough to run once per (origin,
// announcement class).
//
// Filtering: each AS has a FilterPolicy. ROV drops RPKI-invalid
// announcements from any neighbor (§2.3); customer/peer ingress filtering
// (MANRS Action 1, §2.4) drops announcements whose RPKI or IRR status is
// invalid when learned on the corresponding adjacency. A dropped
// announcement is neither installed nor re-exported by that AS.
//
// Engine layout (see docs/performance.md, "The propagation engine"):
//   * adjacency is CSR (flat offset/edge arrays), with dense ids assigned
//     in ASN-ascending order so every tie-break compares ids directly;
//   * per-(policy, adjacency, class) drop decisions are precomputed into
//     packed bitsets, turning the BFS inner-loop filter check into one
//     bit test;
//   * a result is one packed 32-bit word per AS (route source and next-hop
//     id; distances are chain lengths, walked on demand), so a cached
//     entry costs 4 B per AS;
//   * propagate_cached() memoizes results by (origin, effective drop
//     signature), letting the collector and hegemony stages share one
//     propagation per group -- and letting classes no policy tells apart
//     collapse onto a single cache entry;
//   * there is one engine, the lane engine: propagate_batch() runs up to
//     kMaxBatchLanes origins per sweep over a struct-of-arrays lane block
//     (one packed 32-bit order key per (AS, lane): priority, distance and
//     next-hop id, contiguous per AS), so one pass over the CSR adjacency
//     serves the whole batch and the descent's fold is one unsigned min
//     per 8 lanes (AVX2); propagate() is a one-lane sweep, and
//     propagate_cached() groups pending (origin, signature) misses into
//     such sweeps;
//   * extract_paths() reconstructs per-vantage AS paths into a reusable
//     PathArena with a per-AS suffix memo, returning non-owning PathViews
//     instead of one heap AsPath per vantage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "astopo/graph.h"
#include "bgp/route.h"
#include "netbase/asn.h"

namespace manrs::sim {

/// Validity flags an announcement carries through the simulator. (The
/// simulator does not re-derive them; the caller classifies against its
/// VRP/IRR stores and passes the result in.)
///
/// `variant` models the well-known leakiness of manually maintained
/// prefix-list filters: invalid announcements are bucketed into
/// kFilterVariants classes (assigned by prefix hash), and an AS with
/// customer/peer strictness s drops only buckets < s. Strictness
/// kFilterVariants means "drops everything invalid"; ROV, which routers
/// apply uniformly, is modeled as all-or-nothing.
struct AnnouncementClass {
  bool rpki_invalid = false;
  bool irr_invalid = false;
  uint8_t variant = 0;  // meaningful only when some flag is set

  friend bool operator==(const AnnouncementClass&,
                         const AnnouncementClass&) = default;
};

inline constexpr uint8_t kFilterVariants = 4;

/// Deterministic variant bucket for a prefix: FNV-1a over the prefix's
/// wire bytes (family, length, 16 address bytes big-endian), mod
/// kFilterVariants. Never std::hash -- the bucket feeds propagation and
/// therefore output bytes, which must not depend on the standard library
/// (util/det_hash.h).
uint8_t filter_variant(const net::Prefix& prefix);

/// Per-AS ingress filtering behaviour.
struct FilterPolicy {
  /// Full ROV deployment: drop RPKI-invalid routes from any neighbor.
  bool rov = false;
  /// MANRS Action 1 style filtering of customer announcements: drop
  /// customer-learned RPKI/IRR-invalid routes in variant buckets
  /// [0, customer_strictness). 0 = no filtering, kFilterVariants = strict.
  uint8_t customer_strictness = 0;
  /// Ingress filtering on peers (MANRS CDN Action 1 covers "peers and
  /// customers").
  uint8_t peer_strictness = 0;
};

/// How a route was learned at an AS.
enum class RouteSource : uint8_t {
  kNone = 0,
  kProvider = 1,
  kPeer = 2,
  kCustomer = 3,
  kOrigin = 4,
};

/// Result of one propagation: per-AS state indexed by dense AS id, one
/// packed 32-bit word per AS (this is the propagation cache's unit, so its
/// size is the cache's size):
///
///     [31:29] RouteSource   [28:0] next-hop dense id
///
/// with hop field kHopNone for "no next hop" (the origin and unreached
/// ASes). The AS-path distance is not stored: it is the length of the
/// next-hop chain, which distance() walks.
struct PropagationResult {
  static constexpr int32_t kNoRoute = -1;
  static constexpr int kSourceShift = 29;
  static constexpr uint32_t kHopNone = (1u << kSourceShift) - 1;
  /// distance() of an AS without a route (or with a corrupt chain).
  static constexpr uint16_t kNoDistance = 0xffff;

  std::vector<uint32_t> words;

  /// Pack one AS's state; `hop` is a dense id below kHopNone or kNoRoute.
  static constexpr uint32_t pack(RouteSource src, int32_t hop) {
    return (static_cast<uint32_t>(src) << kSourceShift) |
           (hop < 0 ? kHopNone : static_cast<uint32_t>(hop));
  }

  size_t size() const { return words.size(); }
  /// How AS `id` learned the route.
  RouteSource source(int32_t id) const {
    return static_cast<RouteSource>(words[static_cast<size_t>(id)] >>
                                    kSourceShift);
  }
  /// Dense id of the neighbor toward the origin; kNoRoute for the origin
  /// and for unreached ASes.
  int32_t next_hop(int32_t id) const {
    const uint32_t hop = words[static_cast<size_t>(id)] & kHopNone;
    return hop == kHopNone ? kNoRoute : static_cast<int32_t>(hop);
  }
  bool reached(int32_t id) const { return source(id) != RouteSource::kNone; }
  /// AS-path length in hops from the origin: the next-hop chain walked to
  /// the origin, under the same cycle bound as PropagationSim::path_from.
  /// kNoDistance when AS `id` has no route or its chain is corrupt.
  uint16_t distance(int32_t id) const;

  friend bool operator==(const PropagationResult&,
                         const PropagationResult&) = default;
};

/// Shared, immutable propagation result (the propagation cache's unit).
using PropagationResultPtr = std::shared_ptr<const PropagationResult>;

/// Outcome of path reconstruction (path_from). kNoRoute is the normal
/// "vantage never learned the route" case; kBrokenChain means the
/// next_hop chain itself is corrupt (a cycle, an out-of-range id, or a
/// hop with no installed route) -- possible only with a damaged or
/// mismatched PropagationResult, never with one this engine produced.
enum class PathStatus : uint8_t {
  kOk = 0,
  kNoRoute = 1,
  kBrokenChain = 2,
};

/// Maps ASNs to dense ids [0, n) and back. Ids are assigned in
/// ASN-ascending order, so `id_a < id_b` iff `asn_of(id_a) < asn_of(id_b)`
/// -- the propagation tie-breaks rely on this to compare ids directly.
class AsIndexer {
 public:
  /// Throws std::length_error for graphs of more than
  /// PropagationResult::kHopNone ASes (ids must fit the packed hop field).
  explicit AsIndexer(const astopo::AsGraph& graph);

  int32_t id_of(net::Asn asn) const {
    auto it = ids_.find(asn.value());
    return it == ids_.end() ? -1 : it->second;
  }
  net::Asn asn_of(int32_t id) const { return asns_[static_cast<size_t>(id)]; }
  size_t size() const { return asns_.size(); }
  const std::vector<net::Asn>& asns() const { return asns_; }

 private:
  std::unordered_map<uint32_t, int32_t> ids_;
  std::vector<net::Asn> asns_;
};

/// Propagation-cache counters (cumulative over the simulator's lifetime;
/// entries/bytes reflect the current contents).
struct PropagationCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // computed fresh (inserted unless over capacity)
  uint64_t invalidated = 0;  // entries dropped by apply_delta()
  size_t entries = 0;
  size_t bytes = 0;
};

/// One day's topology/policy change set for apply_delta(). The AS universe
/// is fixed at construction (the indexer never changes); deltas add edges
/// among existing ASes and replace per-AS policies wholesale.
struct SimDelta {
  struct PolicyChange {
    net::Asn asn;
    FilterPolicy policy;
  };
  /// For kProviderCustomer edges `a` is the provider and `b` the customer;
  /// for kPeerPeer the order is irrelevant. Duplicate / already-present
  /// edges are ignored.
  struct EdgeAdd {
    net::Asn a;
    net::Asn b;
    astopo::Relationship rel = astopo::Relationship::kPeerPeer;
  };

  std::vector<PolicyChange> policies;
  std::vector<EdgeAdd> edges;

  bool empty() const { return policies.empty() && edges.empty(); }
};

/// Cache-migration accounting from one apply_delta() call.
struct SimDeltaStats {
  size_t entries_before = 0;       // cache entries when the delta arrived
  size_t entries_invalidated = 0;  // dropped (inputs touched by the delta)
  size_t entries_kept = 0;         // survived, rekeyed where signatures moved
};

/// One origin x validity-class request for the batched engine. A batch of
/// these is the unit RouteCollector::collect and IhrSnapshotBuilder::build
/// hand to propagate_cached().
struct PropagationRequest {
  net::Asn origin;
  AnnouncementClass cls;
};

/// Hard ceiling on lanes per batched sweep: lane membership (frontier,
/// drop filters, change tracking) is one 64-bit mask per AS.
inline constexpr size_t kMaxBatchLanes = 64;

/// Lane width used when chunking requests into sweeps: MANRS_BATCH_WIDTH
/// (default 64), clamped to [1, kMaxBatchLanes].
size_t batch_width();
/// Override the width (clamped to [1, kMaxBatchLanes]); 0 re-reads the
/// environment. Test hook, like util::set_grain.
void set_batch_width(size_t width);

/// Reusable scratch for one batched sweep (propagate_batch): per-AS lane
/// state as struct-of-arrays. The packed 4-byte order keys of all lanes of
/// one AS are contiguous (`key[v * lanes + l]`), so the descent's
/// min-fold runs over a dense block per edge visit; frontier membership,
/// drop filters, and change tracking are one 64-bit lane mask per AS.
/// begin() must start every sweep -- the arrays carry the previous
/// sweep's keys otherwise -- and a workspace must not be shared between
/// concurrent sweeps; parallel callers keep one per worker thread.
struct BatchWorkspace {
  size_t n = 0;      // ASes (dense-id space)
  size_t lanes = 0;  // active lanes this sweep, <= kMaxBatchLanes

  std::vector<uint32_t> key;  // n * lanes packed order keys, SoA per AS
  // Per-AS lane masks.
  std::vector<uint64_t> cust_mask;   // lanes holding a customer/origin route
  std::vector<uint64_t> reach_mask;  // lanes routed after phases 1-2
  std::vector<uint64_t> fmask;       // current BFS-level frontier lanes
  std::vector<uint64_t> cmask;       // lanes changed within a level
  std::vector<uint64_t> drop_cust;   // lanes this AS filters per adjacency
  std::vector<uint64_t> drop_peer;
  std::vector<uint64_t> drop_prov;
  std::vector<int32_t> frontier;
  std::vector<int32_t> next;
  std::vector<int32_t> touched;  // ids routed in phases 1-2, in set order

  /// Start a sweep over `n_ases` ASes and `lane_count` lanes: size and
  /// clear every array (keys to the unseen sentinel).
  void begin(size_t n_ases, size_t lane_count);

  /// Seed lane `lane`'s origin at dense id `id`: pins the origin key and
  /// enters the id into the phase-1 frontier. Call after begin().
  void seed_origin(int32_t id, size_t lane);
};

/// A non-owning view of one reconstructed AS path [vantage, ..., origin].
/// The hops live in the PathArena the view was extracted into; views stay
/// valid until that arena's next extract_paths() call (or destruction).
struct PathView {
  const net::Asn* hops = nullptr;
  uint32_t len = 0;

  bool empty() const { return len == 0; }
  size_t size() const { return len; }
  const net::Asn* begin() const { return hops; }
  const net::Asn* end() const { return hops + len; }
  net::Asn operator[](size_t i) const { return hops[i]; }
  /// Materialize an owned path (one exact-size allocation).
  bgp::AsPath to_path() const {
    return bgp::AsPath(std::vector<net::Asn>(hops, hops + len));
  }
};

/// Cumulative process-wide counters for arena path extraction. shared_hops
/// counts hops served from a memoized shared suffix instead of a fresh
/// next_hop-chain walk.
struct PathArenaStats {
  uint64_t paths = 0;
  uint64_t hops = 0;
  uint64_t shared_hops = 0;
};
PathArenaStats path_arena_stats();

/// Bump storage for extract_paths(): all hops of one result's paths in a
/// single grow-only vector, plus an epoch-stamped per-AS memo so vantages
/// deep in the same customer cone share their common suffix ([AS, ...,
/// origin] is a function of the AS alone within one result) by memcpy
/// instead of re-walking the chain. Reused across calls with O(1) reset;
/// one arena per worker thread, like BatchWorkspace.
class PathArena {
 public:
  PathArena() = default;

 private:
  friend class PropagationSim;
  struct Memo {
    uint32_t offset = 0;
    uint32_t len = 0;
    uint32_t stamp = 0;  // valid iff == epoch
  };
  std::vector<net::Asn> hops_;
  std::vector<Memo> memo_;
  std::vector<int32_t> scratch_;  // ids of the walked (unmemoized) prefix
  uint32_t epoch_ = 0;
};

class PropagationSim {
 public:
  explicit PropagationSim(const astopo::AsGraph& graph);
  ~PropagationSim();
  PropagationSim(PropagationSim&&) noexcept;
  PropagationSim& operator=(PropagationSim&&) noexcept;

  const AsIndexer& indexer() const { return indexer_; }

  /// Set the filtering policy of one AS (default: no filtering).
  /// Invalidates the precomputed drop masks and the propagation cache;
  /// not safe concurrently with propagate() calls.
  void set_policy(net::Asn asn, const FilterPolicy& policy);
  const FilterPolicy& policy(net::Asn asn) const;

  /// Apply one day's policy/edge delta in place with *selective* cache
  /// invalidation (set_policy clears the cache wholesale). Not safe
  /// concurrently with propagate() calls. Two-step migration under the
  /// cache lock, sound because a cached result is a pure function of
  /// (adjacency, origin, the 3 drop-mask bitsets of its signature):
  ///
  ///   1. Rekey by mask bytes: entries whose old signature's mask block is
  ///      byte-identical to a rebuilt signature's block keep their result
  ///      under the new signature; entries whose block disappeared (some
  ///      policy change touched a mask their class uses) are dropped.
  ///   2. Edge candidate test: for each surviving entry and each new edge,
  ///      compute the packed order key the edge would offer at both
  ///      endpoints (export gating + receiver drop masks included). If no
  ///      offer beats the endpoint's current key, the old result is still
  ///      a fixpoint of the grown graph -- and the minimal one, so it is
  ///      exactly what a cold propagation would return. Otherwise drop.
  ///
  /// The per-day cold-rebuild oracle (DeltaOracle tests, SnapshotSeries
  /// verify mode) pins that this is never too narrow.
  SimDeltaStats apply_delta(const SimDelta& delta);

  /// Propagate an announcement originated by `origin` with the given
  /// validity class. Returns per-AS routing state. Always computes (no
  /// cache): a one-request propagate_batch, i.e. a one-lane sweep on the
  /// calling thread's lane workspace. Like every batched call it throws
  /// std::length_error when the graph's route-distance bound does not fit
  /// the lane key (see propagate_batch).
  PropagationResult propagate(net::Asn origin,
                              const AnnouncementClass& cls) const;

  /// Memoized propagation, shared across pipeline stages: results are
  /// keyed by (origin, effective drop signature), so classes that no
  /// policy distinguishes -- all valid classes, and invalid variants with
  /// identical drop masks -- collapse onto one cached propagation. The
  /// returned pointer stays valid after clear_cache(). Safe to call
  /// concurrently. When the cache is disabled this computes fresh. A
  /// one-request call of the batched overload below (same accounting,
  /// capacity and std::length_error).
  PropagationResultPtr propagate_cached(net::Asn origin,
                                        const AnnouncementClass& cls) const;

  /// Batch-aware cached propagation: resolves every request against the
  /// memo, groups first-seen misses by (origin, signature), runs them
  /// through the lane engine batch_width() origins per sweep (sweeps fan
  /// out over the worker pool), installs the results, and returns one
  /// pointer per request (slot i answers requests[i]). Per-lane results
  /// are byte-identical at any width. Unknown origins yield the all-none
  /// result.
  /// Throws std::length_error, as propagate_batch does, when a sweep is
  /// needed and route distances could overflow the lane keys.
  std::vector<PropagationResultPtr> propagate_cached(
      const std::vector<PropagationRequest>& requests) const;

  /// Uncached batched propagation (the raw lane engine): slot i answers
  /// requests[i], chunked into sweeps of batch_width() lanes. The
  /// workspace overload reuses caller scratch. Throws std::length_error
  /// when the graph's route-distance bound (2 x the longest p2c chain + 1,
  /// or n - 1 with a p2c cycle) does not fit the lane key's distance field
  /// of 30 - std::bit_width(n) bits.
  std::vector<PropagationResult> propagate_batch(
      const std::vector<PropagationRequest>& requests) const;
  std::vector<PropagationResult> propagate_batch(
      const std::vector<PropagationRequest>& requests,
      BatchWorkspace& workspace) const;

  /// Cache controls. Capacity defaults to MANRS_PROP_CACHE_MB megabytes
  /// (2048 when unset); at capacity, new results are returned uncached.
  /// Disabling also clears. Cached bytes are pure function values, so
  /// outputs are byte-identical with the cache on or off.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const;
  void clear_cache();
  PropagationCacheStats cache_stats() const;

  /// Reconstruct the AS path from `vantage` to the origin (inclusive of
  /// both): [vantage, ..., origin]. Empty when the vantage has no route.
  /// The status overload distinguishes "no route" from a corrupt
  /// next_hop chain (see PathStatus); both return an empty path.
  bgp::AsPath path_from(const PropagationResult& result,
                        net::Asn vantage) const;
  bgp::AsPath path_from(const PropagationResult& result, net::Asn vantage,
                        PathStatus* status) const;

  /// Reconstruct the AS path of every vantage in one pass: slot i is
  /// vantages[i]'s path as a view into `arena` (empty when the vantage
  /// has no route or the chain is corrupt, exactly like path_from).
  /// Vantages whose suffix was already walked for this result share its
  /// hops through the arena memo. Views from previous extract_paths calls
  /// on the same arena are invalidated.
  std::vector<PathView> extract_paths(const PropagationResult& result,
                                      const std::vector<net::Asn>& vantages,
                                      PathArena& arena) const;

 private:
  /// Flat compressed-sparse-row adjacency: neighbors of u are
  /// edges[offsets[u] .. offsets[u+1]), ascending by id (== by ASN).
  struct Csr {
    std::vector<uint32_t> offsets;
    std::vector<int32_t> edges;

    const int32_t* begin(int32_t u) const {
      return edges.data() + offsets[static_cast<size_t>(u)];
    }
    const int32_t* end(int32_t u) const {
      return edges.data() + offsets[static_cast<size_t>(u) + 1];
    }
  };

  // Mutable engine state (lazily built drop masks, the propagation
  // cache) lives behind a pointer so the simulator stays movable; the
  // definition is in propagation.cpp.
  struct State;

  void ensure_masks() const;
  /// Recompute descent_order_, descent_is_dag_ and lane_dist_bound_ from
  /// the current CSRs (construction and after apply_delta() edge growth).
  void rebuild_descent_order();
  size_t class_index(const AnnouncementClass& cls) const;
  const uint64_t* mask_for(size_t cls_index, size_t adjacency) const;
  /// One batched sweep: lane l propagates origin_ids[l] under class index
  /// cls_indices[l]; results[l] receives lane l's dense result. Callers
  /// guarantee lanes <= kMaxBatchLanes, valid ids, ensure_masks(), and
  /// that lane_dist_bound_ fits the lane key's distance field.
  void propagate_lanes(const int32_t* origin_ids, const size_t* cls_indices,
                       size_t lanes, BatchWorkspace& ws,
                       PropagationResult* const* results) const;

  AsIndexer indexer_;
  Csr providers_;  // providers_.edges of u: ids that are providers of u
  Csr customers_;
  Csr peers_;
  // Provider-before-customer topological order of the p2c hierarchy,
  // computed once at construction: the lane engine's descent pulls each
  // AS's provider candidates in this order, so one pass over the order
  // crosses every p2c edge exactly once. If the graph has a p2c cycle
  // (never for generated topologies), the order is completed with the
  // leftover ids and the descent iterates to the fixpoint instead.
  std::vector<int32_t> descent_order_;
  bool descent_is_dag_ = true;
  // Lane-key layout: the next-hop field is std::bit_width(n) bits, the
  // distance field the rest below the 2 priority bits. lane_dist_bound_
  // bounds every route distance: 2 x the longest p2c chain + 1 on a DAG,
  // n - 1 otherwise. Batched propagation throws std::length_error when it
  // does not fit the distance field.
  int lane_hop_bits_ = 0;
  uint32_t lane_dist_bound_ = 0;
  std::vector<FilterPolicy> policies_;
  std::unique_ptr<State> state_;
};

}  // namespace manrs::sim
