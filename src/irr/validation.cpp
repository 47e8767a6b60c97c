#include "irr/validation.h"

namespace manrs::irr {

std::string_view to_string(IrrStatus s) {
  switch (s) {
    case IrrStatus::kValid:
      return "Valid";
    case IrrStatus::kInvalidAsn:
      return "Invalid";
    case IrrStatus::kInvalidLength:
      return "InvalidLength";
    case IrrStatus::kNotFound:
      return "NotFound";
  }
  return "?";
}

namespace {
// Folds the three flags over every covering object in place. The flags
// are ORs, so a (prefix, origin) mirrored into several databases cannot
// change the verdict and needs no de-duplication.
template <typename Source>
IrrStatus classify(const Source& source, const net::Prefix& route,
                   net::Asn origin) {
  bool any_covering = false;
  bool asn_match = false;
  bool valid = false;
  source.for_each_covering(route, [&](const RouteObject& obj) {
    any_covering = true;
    if (obj.origin == origin) {
      asn_match = true;
      // IRR max length == registered prefix length (§6.1): only an exact
      // length match is Valid.
      if (obj.prefix.length() == route.length()) valid = true;
    }
  });
  if (!any_covering) return IrrStatus::kNotFound;
  if (valid) return IrrStatus::kValid;
  if (asn_match) return IrrStatus::kInvalidLength;
  return IrrStatus::kInvalidAsn;
}
}  // namespace

IrrStatus validate_route(const IrrRegistry& registry,
                         const net::Prefix& route, net::Asn origin) {
  return classify(registry, route, origin);
}

IrrStatus validate_route(const IrrDatabase& database,
                         const net::Prefix& route, net::Asn origin) {
  return classify(database, route, origin);
}

}  // namespace manrs::irr
