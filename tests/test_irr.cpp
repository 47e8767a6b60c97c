#include "irr/database.h"
#include "irr/objects.h"
#include "irr/validation.h"

#include <gtest/gtest.h>

#include <sstream>

namespace manrs::irr {
namespace {

using net::Asn;
using net::Prefix;

RouteObject make_route(const char* prefix, uint32_t origin) {
  RouteObject r;
  r.prefix = Prefix::must_parse(prefix);
  r.origin = Asn(origin);
  return r;
}

TEST(TypedObjects, RouteFromRpsl) {
  auto objects = parse_rpsl(
      "route: 192.0.2.0/24\norigin: AS64496\nmnt-by: MAINT-A\nsource: radb\n");
  ASSERT_EQ(objects.size(), 1u);
  auto route = RouteObject::from_rpsl(objects[0]);
  ASSERT_TRUE(route);
  EXPECT_EQ(route->prefix, Prefix::must_parse("192.0.2.0/24"));
  EXPECT_EQ(route->origin, Asn(64496));
  EXPECT_EQ(route->source, "RADB");
  ASSERT_EQ(route->maintainers.size(), 1u);
  EXPECT_EQ(route->maintainers[0], "MAINT-A");
}

TEST(TypedObjects, Route6RequiresV6Prefix) {
  auto v6 = parse_rpsl("route6: 2001:db8::/32\norigin: AS1\n");
  EXPECT_TRUE(RouteObject::from_rpsl(v6[0]).has_value());
  auto mismatched = parse_rpsl("route6: 10.0.0.0/8\norigin: AS1\n");
  EXPECT_FALSE(RouteObject::from_rpsl(mismatched[0]).has_value());
  auto mismatched2 = parse_rpsl("route: 2001:db8::/32\norigin: AS1\n");
  EXPECT_FALSE(RouteObject::from_rpsl(mismatched2[0]).has_value());
}

TEST(TypedObjects, RouteRejectsMalformed) {
  auto no_origin = parse_rpsl("route: 10.0.0.0/8\nmnt-by: X\n");
  EXPECT_FALSE(RouteObject::from_rpsl(no_origin[0]).has_value());
  auto bad_origin = parse_rpsl("route: 10.0.0.0/8\norigin: banana\n");
  EXPECT_FALSE(RouteObject::from_rpsl(bad_origin[0]).has_value());
  auto bad_prefix = parse_rpsl("route: banana\norigin: AS1\n");
  EXPECT_FALSE(RouteObject::from_rpsl(bad_prefix[0]).has_value());
}

TEST(TypedObjects, AsSetFromRpsl) {
  auto objects = parse_rpsl(
      "as-set: as-example\n"
      "members: AS1, AS-FOO, AS2\n"
      "source: RADB\n");
  auto set = AsSetObject::from_rpsl(objects[0]);
  ASSERT_TRUE(set);
  EXPECT_EQ(set->name, "AS-EXAMPLE");  // canonical upper case
  ASSERT_EQ(set->members.size(), 3u);
  EXPECT_TRUE(set->members[0].is_asn());
  EXPECT_EQ(*set->members[0].asn, Asn(1));
  EXPECT_FALSE(set->members[1].is_asn());
  EXPECT_EQ(set->members[1].set_name, "AS-FOO");
}

TEST(TypedObjects, RpslRoundTrip) {
  RouteObject route = make_route("10.0.0.0/8", 42);
  route.source = "RIPE";
  route.maintainers.push_back("MAINT-X");
  auto back = RouteObject::from_rpsl(route.to_rpsl());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->prefix, route.prefix);
  EXPECT_EQ(back->origin, route.origin);
  EXPECT_EQ(back->source, route.source);
}

TEST(IrrDatabase, CoveringRoutes) {
  IrrDatabase db("RADB", false);
  db.add_route(make_route("10.0.0.0/8", 1));
  db.add_route(make_route("10.1.0.0/16", 2));
  auto covering = db.covering_routes(Prefix::must_parse("10.1.2.0/24"));
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0].origin, Asn(1));  // least specific first
  EXPECT_EQ(covering[1].origin, Asn(2));
  EXPECT_TRUE(db.covered(Prefix::must_parse("10.250.0.0/16")));
  EXPECT_FALSE(db.covered(Prefix::must_parse("11.0.0.0/8")));
}

TEST(IrrDatabase, LoadRpslIngestsKnownClasses) {
  std::istringstream in(
      "route: 10.0.0.0/8\norigin: AS1\n\n"
      "as-set: AS-X\nmembers: AS1\n\n"
      "aut-num: AS1\nas-name: EXAMPLE\n\n"
      "mntner: MAINT-X\nauth: CRYPT-PW x\n\n");  // ignored class
  IrrDatabase db("TEST", true);
  size_t loaded = db.load_rpsl(in);
  EXPECT_EQ(loaded, 3u);
  EXPECT_EQ(db.route_count(), 1u);
  EXPECT_EQ(db.as_set_count(), 1u);
  EXPECT_EQ(db.aut_num_count(), 1u);
  EXPECT_NE(db.find_as_set("as-x"), nullptr);  // case-insensitive
  EXPECT_NE(db.find_aut_num(Asn(1)), nullptr);
  EXPECT_EQ(db.find_aut_num(Asn(2)), nullptr);
}

TEST(IrrDatabase, WriteRpslRoundTrip) {
  IrrDatabase db("TEST", true);
  db.add_route(make_route("10.0.0.0/8", 1));
  db.add_route(make_route("2001:db8::/32", 2));
  AsSetObject set;
  set.name = "AS-X";
  set.members.push_back({Asn(1), ""});
  db.add_as_set(set);

  std::ostringstream out;
  db.write_rpsl(out);
  std::istringstream in(out.str());
  IrrDatabase db2("TEST2", true);
  EXPECT_EQ(db2.load_rpsl(in), 3u);
  EXPECT_EQ(db2.route_count(), 2u);
  EXPECT_TRUE(db2.covered(Prefix::must_parse("2001:db8::/48")));
}

TEST(IrrRegistry, AuthoritativePrecedence) {
  IrrRegistry registry;
  auto& radb = registry.add_database("RADB", false);
  auto& ripe = registry.add_database("RIPE", true);
  radb.add_route(make_route("10.0.0.0/8", 1));
  ripe.add_route(make_route("10.0.0.0/8", 2));

  auto dbs = registry.databases();
  ASSERT_EQ(dbs.size(), 2u);
  EXPECT_EQ(dbs[0]->name(), "RIPE");  // authoritative first

  // Same (prefix, origin) de-dup keeps the authoritative copy first; the
  // distinct origins both appear.
  auto covering = registry.covering_routes(Prefix::must_parse("10.0.0.0/8"));
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0].origin, Asn(2));
}

TEST(IrrRegistry, MirrorDeduplicates) {
  IrrRegistry registry;
  auto& ripe = registry.add_database("RIPE", true);
  ripe.add_route(make_route("10.0.0.0/8", 1));
  ripe.add_route(make_route("11.0.0.0/8", 2));

  size_t copied = registry.mirror(ripe, "RADB");
  EXPECT_EQ(copied, 2u);
  // Mirroring again copies nothing new.
  EXPECT_EQ(registry.mirror(ripe, "RADB"), 0u);
  EXPECT_EQ(registry.find_database("RADB")->route_count(), 2u);
  // Mirrored objects keep their original source tag.
  auto routes =
      registry.find_database("RADB")->routes_at(Prefix::must_parse("10.0.0.0/8"));
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].source, "RIPE");
}

TEST(IrrValidation, StatusClassification) {
  IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  db.add_route(make_route("10.0.0.0/16", 64496));

  // Exact match, right origin: Valid.
  EXPECT_EQ(validate_route(registry, Prefix::must_parse("10.0.0.0/16"),
                           Asn(64496)),
            IrrStatus::kValid);
  // More specific than registered, right origin: Invalid Length (§6.1 --
  // the paper treats this as conformant).
  EXPECT_EQ(validate_route(registry, Prefix::must_parse("10.0.1.0/24"),
                           Asn(64496)),
            IrrStatus::kInvalidLength);
  // Wrong origin: Invalid.
  EXPECT_EQ(validate_route(registry, Prefix::must_parse("10.0.0.0/16"),
                           Asn(64497)),
            IrrStatus::kInvalidAsn);
  // No covering object: NotFound.
  EXPECT_EQ(
      validate_route(registry, Prefix::must_parse("11.0.0.0/16"), Asn(64496)),
      IrrStatus::kNotFound);
}

TEST(IrrValidation, ExactLengthRequiredForValid) {
  // Unlike RPKI max-length, IRR Valid demands an exact-length object.
  IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  db.add_route(make_route("10.0.0.0/16", 1));
  db.add_route(make_route("10.0.0.0/24", 1));
  EXPECT_EQ(validate_route(registry, Prefix::must_parse("10.0.0.0/24"),
                           Asn(1)),
            IrrStatus::kValid);
  EXPECT_EQ(validate_route(registry, Prefix::must_parse("10.0.0.0/20"),
                           Asn(1)),
            IrrStatus::kInvalidLength);
}

TEST(IrrValidation, IsInvalidOnlyForWrongOrigin) {
  EXPECT_TRUE(is_invalid(IrrStatus::kInvalidAsn));
  EXPECT_FALSE(is_invalid(IrrStatus::kInvalidLength));
  EXPECT_FALSE(is_invalid(IrrStatus::kValid));
  EXPECT_FALSE(is_invalid(IrrStatus::kNotFound));
}

// The §6.1 rule as a naive linear scan over every route object of the
// given databases, covering tested with Prefix::contains.
IrrStatus naive_validate(const std::vector<const IrrDatabase*>& databases,
                         const Prefix& route, Asn origin) {
  bool any_covering = false;
  bool asn_match = false;
  bool valid = false;
  for (const IrrDatabase* db : databases) {
    db->for_each_route([&](const RouteObject& obj) {
      if (!obj.prefix.contains(route)) return;
      any_covering = true;
      if (obj.origin != origin) return;
      asn_match = true;
      if (obj.prefix.length() == route.length()) valid = true;
    });
  }
  if (!any_covering) return IrrStatus::kNotFound;
  if (valid) return IrrStatus::kValid;
  return asn_match ? IrrStatus::kInvalidLength : IrrStatus::kInvalidAsn;
}

IrrRegistry validate_fixture() {
  IrrRegistry registry;
  auto& ripe = registry.add_database("RIPE", true);
  auto& radb = registry.add_database("RADB", false);
  // The same object in two databases (a RADb mirror copy).
  ripe.add_route(make_route("10.0.0.0/16", 64496));
  radb.add_route(make_route("10.0.0.0/16", 64496));
  // An exact-length object under it, and a shorter cover by another AS.
  ripe.add_route(make_route("10.0.1.0/24", 64496));
  radb.add_route(make_route("10.0.0.0/8", 64500));
  // A wrong-origin object at a /24.
  radb.add_route(make_route("10.0.2.0/24", 64497));
  ripe.add_route(make_route("2001:db8::/32", 64496));
  return registry;
}

TEST(IrrValidate, MatchesNaiveLinearScan) {
  const IrrRegistry registry = validate_fixture();
  const char* const queries[] = {
      "10.0.0.0/8",    "10.0.0.0/16",     "10.0.1.0/24",
      "10.0.2.0/24",   "10.0.3.0/24",     "10.0.1.128/25",
      "11.0.0.0/8",    "2001:db8::/32",   "2001:db8:1::/48",
      "2001:db9::/32"};
  const uint32_t origins[] = {64496, 64497, 64500, 1};
  size_t seen[4] = {0, 0, 0, 0};
  for (const char* text : queries) {
    const Prefix query = Prefix::must_parse(text);
    for (uint32_t asn : origins) {
      const IrrStatus want =
          naive_validate(registry.databases(), query, Asn(asn));
      EXPECT_EQ(validate_route(registry, query, Asn(asn)), want)
          << text << " AS" << asn;
      ++seen[static_cast<size_t>(want)];
      for (const IrrDatabase* db : registry.databases()) {
        EXPECT_EQ(validate_route(*db, query, Asn(asn)),
                  naive_validate({db}, query, Asn(asn)))
            << db->name() << " " << text << " AS" << asn;
      }
    }
  }
  // Every status is exercised, so the comparison is not vacuous.
  for (size_t s = 0; s < 4; ++s) EXPECT_GT(seen[s], 0u) << "status " << s;
}

TEST(IrrValidate, CoveringRoutesDeduplicateByPrefixAndOrigin) {
  const IrrRegistry registry = validate_fixture();
  const auto covering =
      registry.covering_routes(Prefix::must_parse("10.0.1.0/24"));
  ASSERT_EQ(covering.size(), 3u);  // the mirrored /16 appears once
  EXPECT_EQ(covering[0].prefix, Prefix::must_parse("10.0.0.0/8"));
  EXPECT_EQ(covering[1].prefix, Prefix::must_parse("10.0.0.0/16"));
  EXPECT_EQ(covering[1].source, "RIPE");  // the authoritative copy wins
  EXPECT_EQ(covering[2].prefix, Prefix::must_parse("10.0.1.0/24"));
}

TEST(AsSetExpansion, RecursiveWithDedup) {
  IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  AsSetObject outer;
  outer.name = "AS-OUTER";
  outer.members.push_back({Asn(1), ""});
  outer.members.push_back({std::nullopt, "AS-INNER"});
  db.add_as_set(outer);
  AsSetObject inner;
  inner.name = "AS-INNER";
  inner.members.push_back({Asn(2), ""});
  inner.members.push_back({Asn(1), ""});  // duplicate across sets
  db.add_as_set(inner);

  auto asns = registry.expand_as_set("AS-OUTER");
  EXPECT_EQ(asns, (std::vector<Asn>{Asn(1), Asn(2)}));
}

TEST(AsSetExpansion, CycleTolerated) {
  IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  AsSetObject a, b;
  a.name = "AS-A";
  a.members.push_back({Asn(1), ""});
  a.members.push_back({std::nullopt, "AS-B"});
  b.name = "AS-B";
  b.members.push_back({Asn(2), ""});
  b.members.push_back({std::nullopt, "AS-A"});  // cycle
  db.add_as_set(a);
  db.add_as_set(b);

  auto asns = registry.expand_as_set("AS-A");
  EXPECT_EQ(asns, (std::vector<Asn>{Asn(1), Asn(2)}));
}

TEST(AsSetExpansion, MissingSetsCounted) {
  IrrRegistry registry;
  auto& db = registry.add_database("RADB", false);
  AsSetObject a;
  a.name = "AS-A";
  a.members.push_back({Asn(1), ""});
  a.members.push_back({std::nullopt, "AS-GONE"});
  db.add_as_set(a);
  size_t missing = 0;
  auto asns = registry.expand_as_set("AS-A", 32, &missing);
  EXPECT_EQ(asns, (std::vector<Asn>{Asn(1)}));
  EXPECT_EQ(missing, 1u);
}

TEST(AsSetExpansion, CrossDatabaseResolution) {
  IrrRegistry registry;
  auto& radb = registry.add_database("RADB", false);
  auto& ripe = registry.add_database("RIPE", true);
  AsSetObject outer;
  outer.name = "AS-OUTER";
  outer.members.push_back({std::nullopt, "AS-RIPE-SET"});
  radb.add_as_set(outer);
  AsSetObject inner;
  inner.name = "AS-RIPE-SET";
  inner.members.push_back({Asn(3333), ""});
  ripe.add_as_set(inner);

  auto asns = registry.expand_as_set("AS-OUTER");
  EXPECT_EQ(asns, (std::vector<Asn>{Asn(3333)}));
}

}  // namespace
}  // namespace manrs::irr
