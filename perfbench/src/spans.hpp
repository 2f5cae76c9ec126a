// The benchmark's own span recorder. Spans are opened by the benchmark
// around each call it makes into a library layer (never inside the
// library), kept in memory, aggregated per name at the end of the run and
// optionally written out as a Chrome/Perfetto trace.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace loadbench {

struct SpanRecord {
  const char* name = "";  // a string literal naming "<layer>.<operation>"
  int parent = -1;        // index of the enclosing span, -1 at the top
  int request = -1;       // request index; -1 during set-up
  long calls = 1;         // operations the span covers (a sweep's points)
  double start_s = 0.0;   // seconds since the tracer was created
  double end_s = 0.0;
};

/// Per-name totals over a run.
struct SpanTotals {
  long spans = 0;
  long calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // total minus the time covered by child spans
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int begin(const char* name);
  void end(int id, long calls);
  void set_request(int request) { request_ = request; }

  std::map<std::string, SpanTotals> totals() const;
  /// Writes every span as a Chrome trace ("ph": "X") event; false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int request_ = -1;
};

/// RAII span; a null tracer makes it a no-op, which is how the untraced
/// run executes the same code.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_, calls_);
  }
  void set_calls(long calls) { calls_ = calls; }

 private:
  Tracer* tracer_;
  int id_;
  long calls_ = 1;
};

}  // namespace loadbench
