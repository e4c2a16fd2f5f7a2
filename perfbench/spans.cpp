/// \file spans.cpp
/// The benchmark's own spans: recorded around every call into a layer,
/// kept in memory, written out at the end as Chrome trace-event JSON,
/// and reduced to per-layer self time.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "common/error.hpp"

namespace perfbench {

Spans::Scope::Scope(Spans& spans, std::string name, int run) : spans_(spans) {
  if (!spans_.enabled_) return;
  Span s;
  s.name = std::move(name);
  s.start_s = spans_.clock_.seconds();
  s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  s.run = run;
  id_ = static_cast<int>(spans_.spans_.size());
  spans_.spans_.push_back(std::move(s));
  spans_.open_.push_back(id_);
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(id_)].end_s = spans_.clock_.seconds();
  spans_.open_.pop_back();
}

namespace {

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Spans::write_chrome_trace(const std::string& path, const std::string& meta_json) const {
  std::ofstream os(path);
  FTLA_CHECK(os.good(), "perfbench: cannot write trace file " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << meta_json << ",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    os << (i ? "," : "") << "\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(layer_of(s.name)) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << "}}";
  }
  os << "\n]}\n";
  FTLA_CHECK(os.good(), "perfbench: short write to " + path);
}

std::vector<std::pair<std::string, double>> Spans::self_seconds_by_layer() const {
  // Children of one parent are sequential (one driving thread), so their
  // covered time is the union of their clipped intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[layer_of(s.name)] += (s.end_s - s.start_s) - covered;
  }
  return {self.begin(), self.end()};
}

}  // namespace perfbench
