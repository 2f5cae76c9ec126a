// One closed-loop workload: a seeded request stream against the tcr public
// API. The loop in main.cpp calls prepare -> execute -> check for request
// i = 0, 1, 2, ... and times execute() alone; inputs are generated in
// prepare() and outputs verified in check(), both outside the timed window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "spans.hpp"
#include "tcr/routing/routing.hpp"

namespace loadbench {

struct Options {
  std::uint64_t seed = 1;
  /// Tiny problem sizes for the self-test (seconds, not minutes).
  bool tiny = false;
};

/// Verdict on one executed request.
struct Outcome {
  bool ok = true;
  std::string failure;  ///< first failed check, empty when ok
  /// Work the request completed, in the workload's throughput unit
  /// (designs, certified sweep points, evaluations, simulated node-cycles).
  double units = 1.0;

  void fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
};

/// Per-layer quantities the workloads gather while a tracer is attached
/// (counts and sizes the spans alone cannot give).
struct LayerTally {
  double models = 0, rows = 0, cols = 0, nnz = 0;  // design LP sizes
  double solve_iterations = 0;   // simplex iterations inside core.solve spans
  double routings = 0, paths = 0;  // routings constructed and their paths
  double samples = 0;              // traffic samples average_case evaluated
  double sim_runs = 0, sim_node_cycles = 0, sim_accept_ratio = 0, sim_drain_cycles = 0;
  double parallel_speedup = 0;     // simulator threads=min(4,nproc) probe
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Requests per round. A round is the balanced request mix; runs stop
  /// only at round boundaries so every run sees the same mix.
  virtual int round_size() const = 0;
  /// Rounds every run completes, however long they take; the tail
  /// percentile below keeps at least ten requests beyond it at this count.
  virtual int min_rounds() const = 0;
  /// Latency percentile reported as the tail (100 = maximum).
  virtual double tail_percentile() const = 0;
  /// Requests whose rounded outputs form the determinism digest.
  virtual int digest_requests() const = 0;

  /// Builds everything the requests share (tori, base routings, traffic
  /// sets, reference values). Timed as setup_s.
  virtual void setup() = 0;
  virtual void prepare(int index) = 0;
  virtual void execute() = 0;
  /// Verifies the last execute(). `corrupt` first damages one output, so
  /// the self-test can prove a wrong result is counted as failed.
  virtual Outcome check(bool corrupt) = 0;
  /// Folds the last checked request's outputs into the digest.
  virtual void digest(Digest& d) const = 0;
  /// Untimed per-layer probes after a traced execute().
  virtual void probe() {}
  /// Untimed probes after the traced loop; returns failed probe count and
  /// adds the probes it ran to *attempted.
  virtual int finish_traced(long* /*attempted*/) { return 0; }

  void attach(Tracer* tracer) { tracer_ = tracer; }
  const LayerTally& tally() const { return tally_; }

 protected:
  /// Tallies a constructed routing and its path count (traced runs only).
  void count_routing(const tcr::TorusRouting& r) {
    if (tracer_ == nullptr) return;
    tally_.routings += 1;
    for (int e = 1; e < r.torus().num_nodes(); ++e)
      tally_.paths += static_cast<double>(r.paths(e).size());
  }

  Tracer* tracer_ = nullptr;  // non-null while a traced execution runs
  LayerTally tally_;
};

std::unique_ptr<Workload> make_design(const Options& opts);
std::unique_ptr<Workload> make_sweep(const Options& opts);
std::unique_ptr<Workload> make_evaluate(const Options& opts);
std::unique_ptr<Workload> make_simulate(const Options& opts);

}  // namespace loadbench
