// manrs_analyze: token- and flow-aware static analyzer for this repo.
//
//   manrs_analyze [--root DIR] [--json] [--sarif FILE] [--list-rules]
//                 [--cache] [--cache-dir DIR]
//                 [--baseline FILE] [--fail-on-new]
//                 [--stats-json FILE] [paths...]
//
// Paths (files or directories) are resolved against the repo root. With
// no paths, scans src tools bench tests (whichever exist).
//
// Exit code contract: 0 = clean scan, 1 = findings (or, under
// --fail-on-new, findings not present in the baseline), 2 = internal
// error: bad usage, unreadable path, malformed protocols.txt, or any
// exception escaping the analysis.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/intervals.h"
#include "analyze/output.h"

namespace fs = std::filesystem;

namespace {

/// Walk up from the current directory looking for the layering config
/// that marks the repo root.
std::string discover_root() {
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return ".";
  for (fs::path p = dir; !p.empty(); p = p.parent_path()) {
    if (fs::exists(p / "tools" / "analyze" / "layers.txt", ec)) {
      return p.string();
    }
    if (p == p.root_path()) break;
  }
  return dir.string();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--json] [--sarif FILE] "
               "[--list-rules] [--cache] [--cache-dir DIR] "
               "[--baseline FILE] [--fail-on-new] [--stats-json FILE] "
               "[paths...]\n",
               argv0);
  return 2;
}

/// Pull prior run objects out of an accumulating bench JSON (same
/// format as BENCH_pipeline.json) so a new run appends, never rewrites.
std::vector<std::string> extract_runs(const std::string& text) {
  std::vector<std::string> runs;
  size_t pos = text.find("\"runs\"");
  if (pos == std::string::npos) return runs;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return runs;
  int bracket = 0;
  int brace = 0;
  size_t start = std::string::npos;
  for (size_t i = pos; i < text.size(); ++i) {
    char c = text[i];
    if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      if (--bracket == 0 && brace == 0) break;
    } else if (c == '{') {
      if (brace++ == 0) start = i;
    } else if (c == '}') {
      if (--brace == 0 && start != std::string::npos) {
        runs.push_back(text.substr(start, i - start + 1));
        start = std::string::npos;
      }
    }
  }
  return runs;
}

void append_stats(const std::string& path,
                  const manrs::analyze::AnalysisResult& result,
                  bool cache_enabled, double wall_ms) {
  std::vector<std::string> runs;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      runs = extract_runs(text.str());
    }
  }
  std::ostringstream run;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"files\": %zu, \"findings\": %zu, \"waived\": %zu, "
                "\"cache\": %s, \"cache_hits\": %zu, \"cache_misses\": %zu, "
                "\"lattice\": %llu, \"wall_ms\": %.3f}",
                result.files_scanned, result.findings.size(), result.waived,
                cache_enabled ? "true" : "false", result.cache_hits,
                result.cache_misses,
                static_cast<unsigned long long>(manrs::analyze::kLatticeVersion),
                wall_ms);
  run << buf;
  runs.push_back(run.str());

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "manrs_analyze: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"manrs_analyze\",\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << "    " << runs[i] << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run_analysis(int argc, char** argv) {
  std::string root;
  bool json = false;
  bool list_rules = false;
  bool use_cache = false;
  bool fail_on_new = false;
  bool self_test_throw = false;
  std::string sarif_path;
  std::string cache_dir;
  std::string baseline_path;
  std::string stats_path;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--root") == 0) {
      if (++i >= argc) return usage(argv[0]);
      root = argv[i];
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--sarif") == 0) {
      if (++i >= argc) return usage(argv[0]);
      sarif_path = argv[i];
    } else if (std::strcmp(arg, "--list-rules") == 0) {
      list_rules = true;
    } else if (std::strcmp(arg, "--cache") == 0) {
      use_cache = true;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      if (++i >= argc) return usage(argv[0]);
      use_cache = true;
      cache_dir = argv[i];
    } else if (std::strcmp(arg, "--baseline") == 0) {
      if (++i >= argc) return usage(argv[0]);
      baseline_path = argv[i];
    } else if (std::strcmp(arg, "--fail-on-new") == 0) {
      fail_on_new = true;
    } else if (std::strcmp(arg, "--stats-json") == 0) {
      if (++i >= argc) return usage(argv[0]);
      stats_path = argv[i];
    } else if (std::strcmp(arg, "--self-test-throw") == 0) {
      self_test_throw = true;  // exercises the exit-2 exception path
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else {
      targets.push_back(arg);
    }
  }

  if (self_test_throw) {
    throw std::runtime_error("--self-test-throw");
  }

  if (root.empty()) root = discover_root();
  manrs::analyze::Analyzer analyzer(root);
  if (!analyzer.layers().loaded) {
    std::fprintf(stderr,
                 "manrs_analyze: warning: no layering config at "
                 "%s/tools/analyze/layers.txt; layer-violation disabled\n",
                 root.c_str());
  }
  if (!analyzer.protocol_error().empty()) {
    std::fprintf(stderr, "manrs_analyze: %s\n",
                 analyzer.protocol_error().c_str());
    return 2;
  }

  if (list_rules) {
    for (const manrs::analyze::CatalogEntry& info : analyzer.rule_catalog()) {
      std::printf("%-24s %-8s %s\n", info.id.c_str(), info.severity.c_str(),
                  info.summary.c_str());
    }
    return 0;
  }

  if (targets.empty()) {
    std::error_code ec;
    for (const char* d : {"src", "tools", "bench", "tests"}) {
      if (fs::is_directory(fs::path(root) / d, ec)) targets.push_back(d);
    }
    if (targets.empty()) {
      std::fprintf(stderr, "manrs_analyze: nothing to scan under %s\n",
                   root.c_str());
      return 2;
    }
  }

  bool ok = true;
  for (const std::string& t : targets) ok = analyzer.add_target(t) && ok;
  if (!ok) return 2;

  if (use_cache) {
    if (cache_dir.empty()) cache_dir = root + "/build/analyze-cache";
    analyzer.enable_cache(cache_dir);
  }

  const auto t0 = std::chrono::steady_clock::now();
  manrs::analyze::AnalysisResult result = analyzer.run();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path);
    if (!sarif) {
      std::fprintf(stderr, "manrs_analyze: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    manrs::analyze::write_sarif(sarif, result, analyzer.rule_catalog());
  }
  if (!stats_path.empty()) {
    append_stats(stats_path, result, use_cache, wall_ms);
  }
  if (json) {
    manrs::analyze::write_json(std::cout, result);
  } else {
    manrs::analyze::write_text(std::cout, result);
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "manrs_analyze: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // Multiset diff by (rule, file, line): a finding is "new" when the
    // current scan holds more instances of its key than the baseline.
    std::map<std::string, int> budget;
    for (const manrs::analyze::SarifResult& r :
         manrs::analyze::parse_sarif_results(text.str())) {
      ++budget[r.rule + "\t" + r.file + "\t" + std::to_string(r.line)];
    }
    size_t fresh = 0;
    for (const manrs::analyze::Finding& f : result.findings) {
      std::string key = f.rule + "\t" + f.file + "\t" + std::to_string(f.line);
      auto it = budget.find(key);
      if (it != budget.end() && it->second > 0) {
        --it->second;
      } else {
        ++fresh;
        std::fprintf(stderr, "manrs_analyze: new vs baseline: %s:%d: %s [%s]\n",
                     f.file.c_str(), f.line, f.message.c_str(),
                     f.rule.c_str());
      }
    }
    std::fprintf(stderr, "manrs_analyze: %zu finding(s) new vs baseline %s\n",
                 fresh, baseline_path.c_str());
    if (fail_on_new) return fresh == 0 ? 0 : 1;
  }

  return result.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_analysis(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "manrs_analyze: internal error: %s\n", e.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "manrs_analyze: internal error\n");
    return 2;
  }
}
