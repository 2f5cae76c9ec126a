#include "spans.hpp"

#include <fstream>

namespace loadbench {

int Tracer::begin(const char* name) {
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_s = seconds_since(origin_);
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id, long calls) {
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = seconds_since(origin_);
  s.calls = calls;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    SpanTotals& t = out[s.name];
    t.spans += 1;
    t.calls += s.calls;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.end_s - s.start_s - child_s[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(s.start_s * 1e6)
        << ",\"dur\":" << json_number((s.end_s - s.start_s) * 1e6) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"calls\":" << s.calls << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace loadbench
