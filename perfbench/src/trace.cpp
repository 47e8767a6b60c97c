#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

int Tracer::open(std::string_view name) {
  SpanRecord span;
  span.name = std::string(name);
  span.op = op_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ms = ms_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  spans_[static_cast<size_t>(span)].end_ms = ms_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Tracer::count(std::string_view name, double value) {
  counters_.push_back(CounterRecord{std::string(name), op_, value});
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<double> Tracer::op_sums(std::string_view name) const {
  std::map<int, double> sums;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.op >= 0) sums[s.op] += s.end_ms - s.start_ms;
  }
  std::vector<double> out;
  for (const auto& [op, ms] : sums) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::values(std::string_view name) const {
  std::vector<double> out;
  for (const CounterRecord& c : counters_) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

std::vector<double> Tracer::child_cover(std::string_view name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    double children = 0.0;
    for (const SpanRecord& s : spans_) {
      if (s.parent == static_cast<int>(i)) children += s.end_ms - s.start_ms;
    }
    const double own = spans_[i].end_ms - spans_[i].start_ms;
    out.push_back(own > 0.0 ? children / own : 0.0);
  }
  return out;
}

namespace {

void write_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "  {\"name\": ");
    write_string(f, s.name);
    std::fprintf(f,
                 ", \"op\": %d, \"parent\": %d, \"start_ms\": %.4f, "
                 "\"end_ms\": %.4f}%s\n",
                 s.op, s.parent, s.start_ms, s.end_ms,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"counters\": [\n");
  for (size_t i = 0; i < counters_.size(); ++i) {
    const CounterRecord& c = counters_[i];
    std::fprintf(f, "  {\"name\": ");
    write_string(f, c.name);
    std::fprintf(f, ", \"op\": %d, \"value\": %.17g}%s\n", c.op, c.value,
                 i + 1 < counters_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
