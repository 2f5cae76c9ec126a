// `simulate`: fixed-length flit-level simulations at k = 16 — the sim layer
// alone. A round runs each of {DOR, VAL, IVAL} x {uniform, tornado,
// transpose, complement} once, at an offered rate drawn as a fraction of the
// request's analytic bound 1/gamma_max between 0.3 and 1.2, so runs fall
// below and above saturation; saturated runs drain and form the latency
// tail. These are the algorithms whose VC discipline is deadlock-free.
#include <algorithm>
#include <bit>
#include <optional>
#include <thread>
#include <vector>

#include "tcr/metrics/loads.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/traffic/patterns.hpp"
#include "workload.hpp"

namespace loadbench {
namespace {

using tcr::TorusRouting;

const char* const kPatterns[] = {"uniform", "tornado", "transpose", "complement"};
constexpr int kNumPatterns = 4;
constexpr int kNumAlgorithms = 3;

// Requests the traced run re-simulates at threads=1 and threads=N.
constexpr int kScalingSlice = 6;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bitwise_equal(const tcr::SimStats& a, const tcr::SimStats& b) {
  if (a.deadlocked != b.deadlocked || a.cancelled != b.cancelled || a.note != b.note ||
      a.injected != b.injected || a.ejected != b.ejected || a.cycles_run != b.cycles_run ||
      a.measured_cycles != b.measured_cycles || a.flit_cycles != b.flit_cycles ||
      a.windows.size() != b.windows.size())
    return false;
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const tcr::SimWindow& x = a.windows[i];
    const tcr::SimWindow& y = b.windows[i];
    if (x.cycles != y.cycles || x.injected != y.injected || x.ejected != y.ejected) return false;
  }
  return same_bits(a.offered_rate, b.offered_rate) &&
         same_bits(a.accepted_rate, b.accepted_rate) &&
         same_bits(a.avg_latency, b.avg_latency) && same_bits(a.max_latency, b.max_latency) &&
         same_bits(a.p50_latency, b.p50_latency) && same_bits(a.p95_latency, b.p95_latency) &&
         same_bits(a.p99_latency, b.p99_latency);
}

class SimulateWorkload final : public Workload {
 public:
  explicit SimulateWorkload(const Options& opts) : opts_(opts), stream_(opts.seed) {
    k_ = opts.tiny ? 4 : 16;
    config_.warmup_cycles = opts.tiny ? 100 : 300;
    config_.measure_cycles = opts.tiny ? 300 : 1000;
    config_.drain_cycles = opts.tiny ? 600 : 3000;
    config_.threads = 1;
  }

  int round_size() const override { return kNumAlgorithms * kNumPatterns; }
  int min_rounds() const override { return opts_.tiny ? 1 : 9; }
  double tail_percentile() const override { return 90.0; }
  int digest_requests() const override { return 2 * round_size(); }

  void setup() override {
    algorithms_.clear();
    perms_.clear();
    bound_.clear();
    torus_.emplace(k_);
    using Maker = TorusRouting (*)(const tcr::Torus&);
    for (Maker make : {Maker{tcr::make_dor}, Maker{tcr::make_valiant}, Maker{tcr::make_ival}}) {
      Span span(tracer_, "routing.build");
      algorithms_.push_back(make(*torus_));
    }
    for (const TorusRouting& r : algorithms_) {
      count_routing(r);
      Span span(tracer_, "routing.load_table");
      r.load_table();
    }
    for (const char* name : kPatterns) {
      perms_.push_back(std::string(name) == "uniform" ? std::vector<int>{}
                                                      : tcr::named_permutation(*torus_, name));
    }
    // Analytic saturation bound 1/gamma_max of every (algorithm, pattern).
    for (const TorusRouting& r : algorithms_) {
      for (const std::vector<int>& perm : perms_) {
        const double gamma =
            perm.empty() ? tcr::uniform_max_load(r) : tcr::max_channel_load(r, perm);
        bound_.push_back(std::min(1.0, 1.0 / gamma));
      }
    }
  }

  void prepare(int index) override {
    combo_ = index % round_size();
    const double fraction = 0.3 + 0.9 * stream_.at(index);
    rate_ = std::min(1.0, fraction * bound_[static_cast<std::size_t>(combo_)]);
    config_.seed = request_seed(opts_.seed, static_cast<std::uint64_t>(index));
  }

  void execute() override { stats_ = run(config_); }

  Outcome check(bool corrupt) override {
    Outcome o;
    if (corrupt) stats_.ejected = stats_.injected + 1;
    if (stats_.deadlocked) o.fail("deadlock under a VC-safe algorithm");
    if (stats_.cancelled) o.fail("simulation cancelled: " + stats_.note);
    if (stats_.ejected > stats_.injected) o.fail("accepted more flits than were offered");
    if (stats_.measured_cycles != config_.measure_cycles)
      o.fail("measurement window is not the configured length");
    o.units = static_cast<double>(stats_.cycles_run) * torus_->num_nodes();
    return o;
  }

  void digest(Digest& d) const override {
    d.add(static_cast<std::int64_t>(stats_.injected));
    d.add(static_cast<std::int64_t>(stats_.ejected));
    d.add(static_cast<std::int64_t>(stats_.cycles_run));
  }

  int finish_traced(long* attempted) override {
    // Scaling probe: the first requests again at threads=1 and at
    // threads=min(4, nproc); the statistics must agree bit for bit.
    const int threads =
        std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    Tracer* tracer = tracer_;
    tracer_ = nullptr;  // keep the probe out of the sim.* span totals
    double serial_s = 0.0, parallel_s = 0.0;
    int failed = 0;
    for (int i = 0; i < kScalingSlice; ++i) {
      prepare(i);
      tcr::SimConfig cfg = config_;
      cfg.threads = 1;
      auto t0 = Clock::now();
      const tcr::SimStats serial = run(cfg);
      serial_s += seconds_since(t0);
      cfg.threads = threads;
      t0 = Clock::now();
      const tcr::SimStats parallel = run(cfg);
      parallel_s += seconds_since(t0);
      if (!bitwise_equal(serial, parallel)) ++failed;
    }
    tracer_ = tracer;
    *attempted += kScalingSlice;
    tally_.parallel_speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    return failed;
  }

 private:
  tcr::SimStats run(const tcr::SimConfig& cfg) {
    const TorusRouting& r = algorithms_[static_cast<std::size_t>(combo_ / kNumPatterns)];
    const std::vector<int>& perm = perms_[static_cast<std::size_t>(combo_ % kNumPatterns)];
    std::optional<tcr::TrafficGen> gen;
    std::optional<tcr::Simulator> sim;
    {
      Span span(tracer_, "sim.build");
      if (perm.empty()) {
        gen.emplace(r, rate_, cfg.seed);
      } else {
        gen.emplace(r, rate_, perm, cfg.seed);
      }
      sim.emplace(r, *gen, cfg);
    }
    tcr::SimStats stats;
    {
      Span span(tracer_, "sim.run");
      stats = sim->run();
    }
    if (tracer_ != nullptr) {
      tally_.sim_runs += 1;
      tally_.sim_node_cycles += static_cast<double>(stats.cycles_run) * torus_->num_nodes();
      if (stats.offered_rate > 0.0)
        tally_.sim_accept_ratio += stats.accepted_rate / stats.offered_rate;
      tally_.sim_drain_cycles += static_cast<double>(
          std::max(0L, stats.cycles_run - cfg.warmup_cycles - cfg.measure_cycles));
    }
    return stats;
  }

  Options opts_;
  Stratified stream_;
  int k_ = 16;
  tcr::SimConfig config_;
  std::optional<tcr::Torus> torus_;
  std::vector<TorusRouting> algorithms_;
  std::vector<std::vector<int>> perms_;
  std::vector<double> bound_;  // per combo = algorithm * kNumPatterns + pattern

  int combo_ = 0;
  double rate_ = 0.0;
  tcr::SimStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_simulate(const Options& opts) {
  return std::make_unique<SimulateWorkload>(opts);
}

}  // namespace loadbench
