// IRR databases and the multi-source registry.
//
// §2.2 of the paper: authoritative IRR databases are run by the five RIRs;
// other organizations (RADb et al.) run non-authoritative ones, and RADb
// additionally *mirrors* many databases into one collection. IrrDatabase
// models a single source; IrrRegistry models the collection a pipeline
// actually queries, with authoritative databases taking precedence and
// mirrored copies de-duplicated by (prefix, origin).
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "irr/objects.h"
#include "netbase/prefix_trie.h"

namespace manrs::irr {

/// A single IRR database (one "source" in RPSL terms).
class IrrDatabase {
 public:
  IrrDatabase(std::string name, bool authoritative)
      : name_(std::move(name)), authoritative_(authoritative) {}

  const std::string& name() const { return name_; }
  bool authoritative() const { return authoritative_; }

  void add_route(RouteObject route);
  void add_as_set(AsSetObject set);
  void add_aut_num(AutNumObject aut);

  /// Remove every route object registered at exactly (prefix, origin);
  /// returns the number removed (0 when absent).
  size_t remove_route(const net::Prefix& prefix, net::Asn origin);

  /// --- staged delta application (temporal snapshot engine) --------------
  /// The route-object equivalent of Rib::begin_delta()/finalize(): a day's
  /// IRR edits queue here and land in one finalize_delta() call, editing
  /// the trie in place instead of rebuilding the database. Queries between
  /// stage_*() calls still see the pre-delta objects.
  void stage_add_route(RouteObject route);
  void stage_remove_route(const net::Prefix& prefix, net::Asn origin);
  size_t staged_count() const { return staged_.size(); }

  /// Apply staged operations in order; returns the number of table
  /// mutations actually performed (removals of absent objects are no-ops).
  size_t finalize_delta();

  size_t route_count() const { return route_count_; }
  size_t as_set_count() const { return as_sets_.size(); }
  size_t aut_num_count() const { return aut_nums_.size(); }

  /// Route objects whose prefix covers `query` (least specific first).
  std::vector<RouteObject> covering_routes(const net::Prefix& query) const;

  /// Invoke `fn(route)` for every route object covering `query`, least
  /// specific first, without copying it.
  template <typename Fn>
  void for_each_covering(const net::Prefix& query, Fn&& fn) const {
    routes_.for_each_covering(
        query, [&](unsigned, const RouteObject& route) { fn(route); });
  }

  /// Route objects registered exactly at `prefix`.
  const std::vector<RouteObject>& routes_at(const net::Prefix& prefix) const;

  /// True iff any route object covers `query`.
  bool covered(const net::Prefix& query) const {
    return routes_.any_covering(query);
  }

  const AsSetObject* find_as_set(std::string_view name) const;
  const AutNumObject* find_aut_num(net::Asn asn) const;

  template <typename Fn>
  void for_each_route(Fn&& fn) const {
    routes_.for_each(fn);
  }

  /// Load objects from RPSL text; returns the number of objects ingested.
  /// Unknown classes are ignored (real dumps carry mntner, person, ...).
  size_t load_rpsl(std::istream& in, size_t* malformed = nullptr);

  /// Dump all objects as RPSL (routes, as-sets, aut-nums).
  void write_rpsl(std::ostream& out) const;

 private:
  struct StagedOp {
    RouteObject route;  // for removals only prefix/origin are meaningful
    bool add;
  };

  std::string name_;
  bool authoritative_;
  net::PrefixTrie<RouteObject> routes_;
  size_t route_count_ = 0;
  std::unordered_map<std::string, AsSetObject> as_sets_;
  std::unordered_map<uint32_t, AutNumObject> aut_nums_;
  std::vector<StagedOp> staged_;
};

/// The queryable union of several IRR databases.
class IrrRegistry {
 public:
  /// Add a database; query order is authoritative databases first (in
  /// insertion order), then the rest.
  IrrDatabase& add_database(std::string name, bool authoritative);

  const IrrDatabase* find_database(std::string_view name) const;

  /// Mutable lookup for in-place delta application (the snapshot-series
  /// driver edits the authoritative database and the RADb mirror copy
  /// through this). nullptr when no database has that name.
  IrrDatabase* find_database_mut(std::string_view name);

  std::vector<const IrrDatabase*> databases() const;
  size_t total_routes() const;

  /// Mirror every object of `source` into the database named `target`
  /// (creating it as non-authoritative if needed), the way RADb ingests
  /// other registries. Duplicate (prefix, origin) pairs already present in
  /// the target are skipped; returns the number of objects copied.
  size_t mirror(const IrrDatabase& source, const std::string& target);

  /// All route objects covering `query`, de-duplicated by (prefix, origin)
  /// with authoritative sources winning. Least specific first.
  std::vector<RouteObject> covering_routes(const net::Prefix& query) const;

  /// Invoke `fn(route)` for every route object of every database that
  /// covers `query`, without copying and without de-duplication: a
  /// mirrored (prefix, origin) is visited once per database holding it.
  template <typename Fn>
  void for_each_covering(const net::Prefix& query, Fn&& fn) const {
    for (const auto& db : databases_) db->for_each_covering(query, fn);
  }

  /// True iff any database has a route object covering `query`.
  bool covered(const net::Prefix& query) const;

  /// Recursively expand an as-set to its member ASNs. Cycles are tolerated
  /// (each set expanded once); `max_depth` caps pathological nesting.
  /// Returns the sorted unique ASNs; unresolvable member sets are counted
  /// in `missing_sets` if provided.
  std::vector<net::Asn> expand_as_set(std::string_view name,
                                      size_t max_depth = 32,
                                      size_t* missing_sets = nullptr) const;

 private:
  const AsSetObject* find_as_set(std::string_view name) const;
  std::vector<std::unique_ptr<IrrDatabase>> databases_;
};

}  // namespace manrs::irr
