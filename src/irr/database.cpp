#include "irr/database.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "irr/rpsl.h"

namespace manrs::irr {

void IrrDatabase::add_route(RouteObject route) {
  if (route.source.empty()) route.source = name_;
  net::Prefix key = route.prefix;
  routes_.insert(key, std::move(route));
  ++route_count_;
}

void IrrDatabase::add_as_set(AsSetObject set) {
  if (set.source.empty()) set.source = name_;
  as_sets_[set.name] = std::move(set);
}

void IrrDatabase::add_aut_num(AutNumObject aut) {
  if (aut.source.empty()) aut.source = name_;
  aut_nums_[aut.asn.value()] = std::move(aut);
}

size_t IrrDatabase::remove_route(const net::Prefix& prefix, net::Asn origin) {
  size_t removed = routes_.erase_at(
      prefix, [&](const RouteObject& r) { return r.origin == origin; });
  route_count_ -= removed;
  return removed;
}

void IrrDatabase::stage_add_route(RouteObject route) {
  staged_.push_back(StagedOp{std::move(route), /*add=*/true});
}

void IrrDatabase::stage_remove_route(const net::Prefix& prefix,
                                     net::Asn origin) {
  RouteObject key;
  key.prefix = prefix;
  key.origin = origin;
  staged_.push_back(StagedOp{std::move(key), /*add=*/false});
}

size_t IrrDatabase::finalize_delta() {
  size_t applied = 0;
  for (StagedOp& op : staged_) {
    if (op.add) {
      add_route(std::move(op.route));
      ++applied;
    } else {
      applied += remove_route(op.route.prefix, op.route.origin);
    }
  }
  staged_.clear();
  return applied;
}

std::vector<RouteObject> IrrDatabase::covering_routes(
    const net::Prefix& query) const {
  return routes_.covering(query);
}

const std::vector<RouteObject>& IrrDatabase::routes_at(
    const net::Prefix& prefix) const {
  return routes_.exact(prefix);
}

const AsSetObject* IrrDatabase::find_as_set(std::string_view name) const {
  auto it = as_sets_.find(canonical_set_name(name));
  return it == as_sets_.end() ? nullptr : &it->second;
}

const AutNumObject* IrrDatabase::find_aut_num(net::Asn asn) const {
  auto it = aut_nums_.find(asn.value());
  return it == aut_nums_.end() ? nullptr : &it->second;
}

size_t IrrDatabase::load_rpsl(std::istream& in, size_t* malformed) {
  RpslParser parser(in);
  RpslObject obj;
  size_t loaded = 0;
  while (parser.next(obj)) {
    if (auto route = RouteObject::from_rpsl(obj)) {
      add_route(std::move(*route));
      ++loaded;
    } else if (auto set = AsSetObject::from_rpsl(obj)) {
      add_as_set(std::move(*set));
      ++loaded;
    } else if (auto aut = AutNumObject::from_rpsl(obj)) {
      add_aut_num(std::move(*aut));
      ++loaded;
    }
    // Other classes (mntner, person, ...) are present in real dumps but
    // not consumed by the pipeline.
  }
  if (malformed) *malformed = parser.malformed_lines();
  return loaded;
}

void IrrDatabase::write_rpsl(std::ostream& out) const {
  routes_.for_each([&](const RouteObject& r) {
    manrs::irr::write_rpsl(out, r.to_rpsl());
  });
  // Deterministic order for sets and aut-nums (unordered_map iteration
  // order is not stable across runs).
  std::vector<const AsSetObject*> sets;
  sets.reserve(as_sets_.size());
  for (const auto& [_, s] : as_sets_) sets.push_back(&s);
  std::sort(sets.begin(), sets.end(),
            [](auto* a, auto* b) { return a->name < b->name; });
  for (const auto* s : sets) manrs::irr::write_rpsl(out, s->to_rpsl());

  std::vector<const AutNumObject*> auts;
  auts.reserve(aut_nums_.size());
  for (const auto& [_, a] : aut_nums_) auts.push_back(&a);
  std::sort(auts.begin(), auts.end(), [](auto* a, auto* b) {
    return a->asn.value() < b->asn.value();
  });
  for (const auto* a : auts) manrs::irr::write_rpsl(out, a->to_rpsl());
}

IrrDatabase& IrrRegistry::add_database(std::string name, bool authoritative) {
  databases_.push_back(
      std::make_unique<IrrDatabase>(std::move(name), authoritative));
  return *databases_.back();
}

const IrrDatabase* IrrRegistry::find_database(std::string_view name) const {
  for (const auto& db : databases_) {
    if (db->name() == name) return db.get();
  }
  return nullptr;
}

IrrDatabase* IrrRegistry::find_database_mut(std::string_view name) {
  for (const auto& db : databases_) {
    if (db->name() == name) return db.get();
  }
  return nullptr;
}

std::vector<const IrrDatabase*> IrrRegistry::databases() const {
  std::vector<const IrrDatabase*> out;
  out.reserve(databases_.size());
  // Authoritative first: this is the precedence order queries use.
  for (const auto& db : databases_) {
    if (db->authoritative()) out.push_back(db.get());
  }
  for (const auto& db : databases_) {
    if (!db->authoritative()) out.push_back(db.get());
  }
  return out;
}

size_t IrrRegistry::total_routes() const {
  size_t n = 0;
  for (const auto& db : databases_) n += db->route_count();
  return n;
}

size_t IrrRegistry::mirror(const IrrDatabase& source,
                           const std::string& target) {
  IrrDatabase* dst = nullptr;
  for (auto& db : databases_) {
    if (db->name() == target) {
      dst = db.get();
      break;
    }
  }
  if (!dst) dst = &add_database(target, /*authoritative=*/false);

  size_t copied = 0;
  source.for_each_route([&](const RouteObject& r) {
    for (const auto& existing : dst->routes_at(r.prefix)) {
      if (existing.origin == r.origin) return;  // already mirrored
    }
    RouteObject copy = r;  // keep the original `source` tag, as RADb does
    dst->add_route(std::move(copy));
    ++copied;
  });
  return copied;
}

std::vector<RouteObject> IrrRegistry::covering_routes(
    const net::Prefix& query) const {
  std::vector<RouteObject> out;
  for (const IrrDatabase* db : databases()) {
    db->for_each_covering(query, [&](const RouteObject& route) {
      // A query has at most a few dozen covering objects: a linear scan
      // over the kept ones is the whole (prefix, origin) de-dup.
      const bool seen =
          std::any_of(out.begin(), out.end(), [&](const RouteObject& kept) {
            return kept.prefix == route.prefix && kept.origin == route.origin;
          });
      if (!seen) out.push_back(route);
    });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RouteObject& a, const RouteObject& b) {
                     return a.prefix.length() < b.prefix.length();
                   });
  return out;
}

bool IrrRegistry::covered(const net::Prefix& query) const {
  for (const auto& db : databases_) {
    if (db->covered(query)) return true;
  }
  return false;
}

const AsSetObject* IrrRegistry::find_as_set(std::string_view name) const {
  for (const IrrDatabase* db : databases()) {
    if (const AsSetObject* set = db->find_as_set(name)) return set;
  }
  return nullptr;
}

std::vector<net::Asn> IrrRegistry::expand_as_set(std::string_view name,
                                                 size_t max_depth,
                                                 size_t* missing_sets) const {
  std::vector<net::Asn> out;
  std::unordered_set<std::string> visited;
  size_t missing = 0;

  // Explicit work stack of (set name, depth) so arbitrarily deep nesting
  // cannot overflow the call stack.
  std::vector<std::pair<std::string, size_t>> stack;
  stack.emplace_back(canonical_set_name(name), 0);
  while (!stack.empty()) {
    auto [set_name, depth] = std::move(stack.back());
    stack.pop_back();
    if (!visited.insert(set_name).second) continue;  // cycle / repeat
    if (depth > max_depth) continue;
    const AsSetObject* set = find_as_set(set_name);
    if (!set) {
      ++missing;
      continue;
    }
    for (const auto& member : set->members) {
      if (member.is_asn()) {
        out.push_back(*member.asn);
      } else {
        stack.emplace_back(member.set_name, depth + 1);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (missing_sets) *missing_sets = missing;
  return out;
}

}  // namespace manrs::irr
