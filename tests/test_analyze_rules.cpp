// End-to-end rule tests for manrs_analyze: run the real binary over
// the deliberately-broken fixture tree (tests/analyze_fixtures/tree)
// with --json and assert the exact (file, line, rule) finding set --
// positives and negatives in one shot, since any unexpected finding
// fails the set comparison.
//
// The fixture corpus doubles as the parity check for the retired
// tools/lint_wire.py regex rules: every spelling the old regexes
// flagged appears as a positive here, so all nine ported rule ids must
// show up, alongside the four token/scope-native ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#ifndef MANRS_ANALYZE_BIN
#error "MANRS_ANALYZE_BIN must point at the manrs_analyze binary"
#endif
#ifndef MANRS_ANALYZE_TREE
#error "MANRS_ANALYZE_TREE must point at the fixture tree"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult run_analyzer(const std::string& args) {
  std::string cmd =
      std::string(MANRS_ANALYZE_BIN) + " " + args + " 2>/dev/null";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, n);
  int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

using FindingKey = std::tuple<std::string, int, std::string>;  // file,line,rule

/// Pull (file, line, rule) triples out of the analyzer's --json output.
/// The format is the fixed machine shape write_json emits, so simple
/// key scanning is reliable.
std::vector<FindingKey> parse_findings(const std::string& json) {
  std::vector<FindingKey> out;
  size_t pos = 0;
  while ((pos = json.find("{\"file\":\"", pos)) != std::string::npos) {
    size_t fbeg = pos + 9;
    size_t fend = json.find('"', fbeg);
    size_t lbeg = json.find("\"line\":", fend) + 7;
    size_t rbeg = json.find("\"rule\":\"", fend) + 8;
    size_t rend = json.find('"', rbeg);
    out.emplace_back(json.substr(fbeg, fend - fbeg),
                     static_cast<int>(
                         std::strtol(json.c_str() + lbeg, nullptr, 10)),
                     json.substr(rbeg, rend - rbeg));
    pos = rend;
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AnalyzeRules, FixtureTreeFindingsMatchExactly) {
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json");
  ASSERT_EQ(r.exit_code, 1) << r.out;  // findings present -> exit 1

  std::vector<FindingKey> expected = {
      {"bench/pos_series_advance_pending.cpp", 6, "series-delta"},
      {"bench/pos_series_reapply.cpp", 7, "series-delta"},
      {"bench/pos_series_recompute_pending.cpp", 7, "series-delta"},
      {"src/bgp/pos_rib_erase_after_finalize.cpp", 7, "rib-typestate"},
      {"src/bgp/pos_rib_insert_after_finalize.cpp", 7, "rib-typestate"},
      {"src/bgp/pos_rib_pass_staged.cpp", 9, "rib-typestate"},
      {"src/bgp/pos_rib_read_staged.cpp", 6, "rib-typestate"},
      {"src/core/pos_layer_undeclared.cpp", 1, "layer-violation"},
      {"src/mrt/pos_cursor_after_try.cpp", 9, "cursor-guard"},
      {"src/mrt/pos_cursor_unguarded.cpp", 5, "cursor-guard"},
      {"src/mrt/pos_memcpy.cpp", 4, "unchecked-memcpy"},
      {"src/mrt/pos_reinterpret.cpp", 3, "reinterpret-cast"},
      {"src/mrt/pos_throw.cpp", 5, "parse-throw-boundary"},
      {"src/mrt/pos_union.cpp", 2, "union-punning"},
      {"src/mrt/pos_waiver_rawstring.cpp", 4, "unchecked-memcpy"},
      {"src/mrt/pos_width_caller.cpp", 11, "cursor-width"},
      {"src/mrt/pos_width_fixed.cpp", 8, "cursor-width"},
      {"src/mrt/pos_width_var.cpp", 8, "cursor-width"},
      {"src/netbase/pos_layer.cpp", 1, "layer-violation"},
      {"src/simulator/pos_bws_shared_parallel.cpp", 7, "batch-workspace"},
      {"src/simulator/pos_bws_stale_seed.cpp", 5, "batch-workspace"},
      {"src/simulator/pos_det_iter.cpp", 7, "determinism-iteration"},
      {"src/simulator/pos_lockset_slot.cpp", 9, "lockset-race"},
      {"src/simulator/pos_lockset_unlocked.cpp", 12, "lockset-race"},
      {"src/simulator/pos_nested_capture.cpp", 6, "nested-parallel"},
      {"src/simulator/pos_nested_map_capture.cpp", 6, "nested-parallel"},
      {"src/simulator/pos_par_capture.cpp", 7, "lockset-race"},
      {"src/simulator/pos_ribmap.cpp", 7, "rib-map"},
      {"src/util/pos_atox.cpp", 3, "locale-atox"},
      {"src/util/pos_mapped_pass_closed.cpp", 8, "mapped-span"},
      {"src/util/pos_mapped_use_after_close.cpp", 8, "mapped-span"},
      {"src/util/pos_stdhash.cpp", 4, "std-hash"},
      {"src/util/pos_strtox.cpp", 4, "throwing-strtox"},
      {"src/util/pos_thread.cpp", 4, "raw-thread"},
      {"src/util/pos_unbounded.cpp", 3, "unbounded-copy"},
      {"src/util/pos_waiver_noreason.cpp", 3, "unbounded-copy"},
      {"src/util/pos_waiver_unused.cpp", 4, "unused-waiver"},
      {"src/util/pos_waiver_unused_standalone.cpp", 3, "unused-waiver"},
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(parse_findings(r.out), expected) << r.out;
}

TEST(AnalyzeRules, RegexCorpusParityAllPortedRulesFire) {
  // Every rule id the old tools/lint_wire.py regexes implemented must
  // still be produced by the port (the fixture corpus holds the old
  // corpus spellings), and the four new rules must fire too.
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json");
  ASSERT_EQ(r.exit_code, 1);
  std::set<std::string> fired;
  for (const FindingKey& k : parse_findings(r.out)) {
    fired.insert(std::get<2>(k));
  }
  const std::array<const char*, 21> all_rules = {
      "reinterpret-cast", "unchecked-memcpy", "throwing-strtox",
      "locale-atox", "unbounded-copy", "union-punning", "raw-thread",
      "rib-map", "std-hash", "determinism-iteration", "lockset-race",
      "layer-violation", "parse-throw-boundary", "rib-typestate",
      "batch-workspace", "cursor-guard", "nested-parallel", "mapped-span",
      "series-delta", "cursor-width", "unused-waiver"};
  for (const char* rule : all_rules) {
    EXPECT_EQ(fired.count(rule), 1u) << "rule never fired: " << rule;
  }
}

TEST(AnalyzeRules, CleanFileExitsZero) {
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json src/util/neg_thread.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(parse_findings(r.out).size(), 0u) << r.out;
}

TEST(AnalyzeRules, WaiversAreCountedNotReported) {
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json src/util/neg_waiver_sameline.cpp" +
                             " src/simulator/neg_det_waived.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("\"waived\":2"), std::string::npos) << r.out;
}

TEST(AnalyzeRules, ListRulesShowsFullCatalog) {
  RunResult r = run_analyzer("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"reinterpret-cast", "determinism-iteration", "lockset-race",
        "layer-violation", "parse-throw-boundary", "rib-typestate",
        "batch-workspace", "cursor-guard", "nested-parallel", "mapped-span",
        "series-delta", "cursor-width", "unused-waiver"}) {
    EXPECT_NE(r.out.find(rule), std::string::npos) << rule;
  }
}

TEST(AnalyzeRules, WaiverInsideRawStringDoesNotWaive) {
  // R"(// lint-ok: ...)" is string data; the memcpy on the same line
  // must still fire.
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json src/mrt/pos_waiver_rawstring.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.out;
  std::vector<FindingKey> expected = {
      {"src/mrt/pos_waiver_rawstring.cpp", 4, "unchecked-memcpy"}};
  EXPECT_EQ(parse_findings(r.out), expected) << r.out;
  EXPECT_NE(r.out.find("\"waived\":0"), std::string::npos) << r.out;
}

TEST(AnalyzeRules, SplicedWaiverCommentStillCoversItsLine) {
  // A backslash-newline inside "// lint-ok: ..." extends the comment,
  // so the waiver (and its reason) still covers the strcpy line.
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --json src/util/neg_waiver_spliced.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(parse_findings(r.out).size(), 0u) << r.out;
  EXPECT_NE(r.out.find("\"waived\":1"), std::string::npos) << r.out;
}

TEST(AnalyzeRules, CachedRerunIsByteIdenticalAndAllHits) {
  std::string dir = testing::TempDir() + "analyze_cache_test";
  // TempDir() is stable across runs; start from a genuinely cold cache.
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
  std::string s1 = dir + ".cold.sarif";
  std::string s2 = dir + ".warm.sarif";
  std::string common = std::string("--root ") + MANRS_ANALYZE_TREE +
                       " --json --cache-dir " + dir;
  RunResult cold = run_analyzer(common + " --sarif " + s1);
  ASSERT_EQ(cold.exit_code, 1) << cold.out;
  EXPECT_NE(cold.out.find("\"cache_hits\":0"), std::string::npos) << cold.out;
  RunResult warm = run_analyzer(common + " --sarif " + s2);
  ASSERT_EQ(warm.exit_code, 1) << warm.out;
  EXPECT_NE(warm.out.find("\"cache_misses\":0"), std::string::npos)
      << warm.out;
  // The cached re-scan must reproduce the cold SARIF byte for byte.
  std::ifstream f1(s1, std::ios::binary);
  std::ifstream f2(s2, std::ios::binary);
  ASSERT_TRUE(f1.good());
  ASSERT_TRUE(f2.good());
  std::ostringstream b1;
  std::ostringstream b2;
  b1 << f1.rdbuf();
  b2 << f2.rdbuf();
  EXPECT_EQ(b1.str(), b2.str());
  std::remove(s1.c_str());
  std::remove(s2.c_str());
}

TEST(AnalyzeRules, BaselinePassesOnItselfFailsOnNewFindings) {
  std::string base = testing::TempDir() + "analyze_baseline_test.sarif";
  // Baseline the full tree, then diff the same scan: nothing new.
  RunResult make = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                                " --sarif " + base);
  ASSERT_EQ(make.exit_code, 1);
  RunResult self = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                                " --baseline " + base + " --fail-on-new");
  EXPECT_EQ(self.exit_code, 0) << self.out;
  // Baseline only a subtree: the rest of the corpus counts as new.
  RunResult partial = run_analyzer(std::string("--root ") +
                                   MANRS_ANALYZE_TREE + " --sarif " + base +
                                   " src/util/pos_atox.cpp");
  ASSERT_EQ(partial.exit_code, 1);
  RunResult gated = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                                 " --baseline " + base + " --fail-on-new");
  EXPECT_EQ(gated.exit_code, 1) << gated.out;
  std::remove(base.c_str());
}

TEST(AnalyzeRules, InternalErrorExitsTwo) {
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --self-test-throw");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(AnalyzeRules, MalformedProtocolSpecExitsTwo) {
  std::string root = testing::TempDir() + "analyze_badproto";
  std::string tools = root + "/tools/analyze";
  ASSERT_EQ(std::system(("mkdir -p " + tools + " " + root + "/src").c_str()),
            0);
  {
    std::ofstream proto(tools + "/protocols.txt");
    proto << "protocol broken\n  on nosuch method -> nowhere\nend\n";
    std::ofstream src(root + "/src/a.cpp");
    src << "int x;\n";
  }
  RunResult r = run_analyzer("--root " + root);
  EXPECT_EQ(r.exit_code, 2);
  ASSERT_EQ(std::system(("rm -rf " + root).c_str()), 0);
}

TEST(AnalyzeRules, SarifArtifactIsWritten) {
  std::string sarif_path = testing::TempDir() + "analyze_test.sarif";
  RunResult r = run_analyzer(std::string("--root ") + MANRS_ANALYZE_TREE +
                             " --sarif " + sarif_path);
  EXPECT_EQ(r.exit_code, 1);
  std::ifstream in(sarif_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(text.str().find("manrs_analyze"), std::string::npos);
  EXPECT_NE(text.str().find("determinism-iteration"), std::string::npos);
  std::remove(sarif_path.c_str());
}

}  // namespace
