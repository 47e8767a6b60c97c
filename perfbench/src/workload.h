// The benchmark's workloads and the independent checks they share.
//
// A workload owns everything it builds: its scenario, its simulator and
// its inputs. main.cpp drives the common loop (set-up, timed ops until the
// run length is spent, post-run checks) and turns the results
// into metrics; the workloads only know how to set up, run one op, check
// it, and, in the traced run, probe their layers one call at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "astopo/graph.h"
#include "bgp/rib.h"
#include "irr/validation.h"
#include "rpki/validation.h"
#include "trace.h"

namespace perfbench {

/// The program's pool width. Width N > 1 starts N workers and the calling
/// thread also runs items, so N + 1 threads are busy; width 1 starts no
/// pool and runs every parallel_for serially on the calling thread. The
/// benchmark runs serially, so that an op's CPU time (Clock) is its
/// latency on an idle host and no op waits on a descheduled worker.
inline constexpr size_t kPoolWidth = 1;

struct Seeds {
  uint64_t scenario = 22;     // topogen::ScenarioConfig::seed
  uint64_t evolution = 2022;  // topogen::EvolutionConfig::seed
  uint64_t workload = 22;     // check samples
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Scenario generation, initial state, and one untimed warm-up op.
  virtual void setup(Tracer* tracer) = 0;

  /// Checks on the set-up's output made apart from the program (run once,
  /// after set-up, outside every timing). False fails every op.
  virtual bool verify_setup() = 0;

  /// One op. Returns the time spent in the program (ms); the workload
  /// checks the op's output afterwards, outside that time, and records
  /// whether it passed.
  virtual double op(Tracer* tracer) = 0;
  virtual bool last_op_ok() const = 0;

  /// Ops per round: a run stops only after whole rounds, so every run
  /// holds the same mix of ops.
  virtual size_t round_ops() const { return 1; }

  /// Checks made after the timed loop (outside op time and after peak
  /// RSS is read). Returns, per op run so far, whether it still passes.
  virtual std::vector<bool> final_checks(size_t ops) {
    return std::vector<bool>(ops, true);
  }

  /// Traced run only: time the op's layers one public call at a time.
  virtual void probe(Tracer* /*tracer*/) {}

  /// One line describing the inputs (announcements, days, bytes...).
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_snapshot(const Seeds& seeds);
std::unique_ptr<Workload> make_series(const Seeds& seeds);
std::unique_ptr<Workload> make_ingest(const Seeds& seeds);

/// The ingest workload's set-up half that runs in a child process: builds
/// the collector RIBs and writes the dump, the update stream and their
/// sizes and digests into `dir`. Returns the process exit code.
int prepare_ingest(const Seeds& seeds, const std::string& dir);

// ---- independent checks (checks.cpp) --------------------------------------

/// True iff `path` ([vantage, ..., origin]) is valley-free under the
/// graph's relations: zero or more customer-to-provider hops, at most one
/// peer hop, then zero or more provider-to-customer hops, read from the
/// origin. A hop between ASes with no edge fails.
bool valley_free(const manrs::astopo::AsGraph& graph,
                 const std::vector<uint32_t>& path);

/// True iff no AS appears twice in `path`.
bool loop_free(const std::vector<uint32_t>& path);

/// RFC 6811 by linear scan over every VRP: Valid when a covering VRP
/// matches the origin (never AS0) and its max length, Invalid Length when
/// a covering VRP matches only the origin, Invalid when covering VRPs
/// exist but none matches, Not Found otherwise.
manrs::rpki::RpkiStatus naive_rpki(const std::vector<manrs::rpki::Vrp>& vrps,
                                   const manrs::net::Prefix& route,
                                   manrs::net::Asn origin);

/// The paper's §6.1 IRR rule by linear scan over every route object: the
/// RFC 6811 procedure with each object's own prefix length as its max
/// length.
manrs::irr::IrrStatus naive_irr(
    const std::vector<manrs::bgp::PrefixOrigin>& route_objects,
    const manrs::net::Prefix& route, manrs::net::Asn origin);

/// FNV-1a step over a prefix's address and length.
uint64_t fold_prefix(uint64_t h, const manrs::net::Prefix& p);

/// FNV-1a digest of a RIB's rows in prefix order, each row's entries taken
/// as (peer AS, path) pairs in sorted order: RIBs with the same rows digest
/// alike whatever their peer indices and entry order.
uint64_t rib_digest(const manrs::bgp::Rib& rib);

}  // namespace perfbench
