// tcr-loadbench: closed-loop load generator for the tcr library. One client
// sends request i + 1 only after request i completed; see README.md for the
// workloads, metrics and how run.py builds and invokes this binary.
//
//   tcr-loadbench --workload design|sweep|evaluate|simulate --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE] [--tiny]
//                 [--corrupt-first]
//
// The last line of standard output is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics untraced and the per-layer metrics traced.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "stats.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/perf/perf.hpp"
#include "workload.hpp"

namespace loadbench {
namespace {

// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
// Failure messages echoed to standard output.
constexpr int kMaxFailuresShown = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
  bool corrupt_first = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "tcr-loadbench: " << error
            << "\nusage: tcr-loadbench --workload design|sweep|evaluate|simulate --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--tiny] [--corrupt-first]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else if (flag == "--tiny") {
        a.tiny = true;
      } else if (flag == "--corrupt-first") {
        a.corrupt_first = true;

      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  const Options opts{args.seed, args.tiny};
  if (args.workload == "design") return make_design(opts);
  if (args.workload == "sweep") return make_sweep(opts);
  if (args.workload == "evaluate") return make_evaluate(opts);
  if (args.workload == "simulate") return make_simulate(opts);
  usage("unknown workload " + args.workload);
}

struct Execution {
  double latency_s = 0.0;
  Outcome outcome;
};

// Times execute() alone, then checks; an exception anywhere is a failure.
Execution run_one(Workload& w, bool corrupt) {
  Execution ex;
  const auto t0 = Clock::now();
  try {
    w.execute();
    ex.latency_s = seconds_since(t0);
    ex.outcome = w.check(corrupt);
  } catch (const std::exception& e) {
    ex.latency_s = seconds_since(t0);
    ex.outcome.fail(std::string("threw: ") + e.what());
  }
  return ex;
}

struct Run {
  std::vector<double> latencies;  // one per request; failed ones at +inf
  std::vector<double> untraced, traced;  // the traced run's paired latencies
  double busy_s = 0.0, units = 0.0;
  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  Digest digest;
  RegistryReading registry;  // deltas over the traced executions
};

void record(Run& run, int index, const Execution& ex) {
  run.busy_s += ex.latency_s;
  if (ex.outcome.ok) {
    run.units += ex.outcome.units;
    return;
  }
  if (static_cast<int>(run.failures.size()) < kMaxFailuresShown)
    run.failures.push_back("request " + std::to_string(index) + ": " + ex.outcome.failure);
}

Run measure(Workload& w, const Args& args, Tracer* tracer) {
  Run run;
  tcr::obs::Registry& registry = tcr::obs::Registry::instance();
  const int round = w.round_size();
  // A traced run executes each request twice, so it needs half the rounds.
  const int min_rounds = tracer == nullptr ? w.min_rounds() : (w.min_rounds() + 1) / 2;
  const int min_requests = min_rounds * round;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (i % round == 0 && i >= min_requests && seconds_since(start) >= args.seconds) break;
    w.prepare(i);
    const bool corrupt = args.corrupt_first && i == 0;
    bool ok = true;
    double latency = 0.0;
    if (tracer == nullptr) {
      const Execution ex = run_one(w, corrupt);
      record(run, i, ex);
      ok = ex.outcome.ok;
      latency = ex.latency_s;
    } else {
      // Each request twice, untraced and traced, alternating which goes
      // first; the pair gives the tracing overhead.
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = pass == i % 2;
        Execution ex;
        if (traced) {
          tracer->set_request(i);
          w.attach(tracer);
          registry.set_timing_enabled(true);
          const RegistryReading before = RegistryReading::now();
          ex = run_one(w, corrupt);
          run.registry.add_delta(before, RegistryReading::now());
          registry.set_timing_enabled(false);
          if (ex.outcome.ok) w.probe();
          w.attach(nullptr);
          run.traced.push_back(ex.latency_s);
        } else {
          ex = run_one(w, corrupt);
          run.untraced.push_back(ex.latency_s);
        }
        record(run, i, ex);
        ok = ok && ex.outcome.ok;
        latency = ex.latency_s;
      }
    }
    run.attempted += 1;
    if (!ok) run.failed += 1;
    run.latencies.push_back(ok ? latency : std::numeric_limits<double>::infinity());
    if (i < w.digest_requests()) w.digest(run.digest);
  }
  if (tracer != nullptr) {
    w.attach(tracer);
    const long before = run.attempted;
    const int probe_failures = w.finish_traced(&run.attempted);
    run.failed += probe_failures;
    if (probe_failures > 0)
      run.failures.push_back(std::to_string(probe_failures) + " of " +
                             std::to_string(run.attempted - before) +
                             " scaling-probe runs differ from threads=1");
    w.attach(nullptr);
  }
  return run;
}

// The end-to-end metrics under their workload-specific names (README.md).
void print_workload_names(const std::string& workload, const std::vector<Metric>& m) {
  const std::string rate = workload == "sweep"      ? "sweep_points_per_s"
                           : workload == "simulate" ? "sim_node_cycles_per_s"
                                                    : workload + "_requests_per_s";
  std::printf("%s_p50_s %.6g s\n%s_tail_s %.6g s\n%s %.6g 1/s\n", workload.c_str(), m[0].value,
              workload.c_str(), m[1].value, rate.c_str(), m[2].value);
  std::printf("setup_s %.6g s\npeak_rss_mb %.6g MiB\nfailed_frac %.6g\n", m[3].value, m[4].value,
              1.0 - m[5].value);
}

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int main_impl(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Tracer tracer;
  Tracer* active = args.trace ? &tracer : nullptr;

  std::unique_ptr<Workload> w;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w.reset();
    w = make_workload(args);
    w->attach(active);
    const auto t0 = Clock::now();
    w->setup();
    setup_times.push_back(seconds_since(t0));
  }
  w->attach(nullptr);

  const auto wall = Clock::now();
  const Run run = measure(*w, args, active);
  const double wall_s = seconds_since(wall);

  const double tail_p = w->tail_percentile();
  std::printf("workload %s seed %llu: %ld requests (%d per round) in %.2f s wall, %ld failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              run.attempted, w->round_size(), wall_s, run.failed);
  for (const std::string& f : run.failures) std::printf("  failure: %s\n", f.c_str());
  std::printf("digest %s over the first %ld requests\n", run.digest.hex().c_str(),
              std::min<long>(w->digest_requests(), run.attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double n = static_cast<double>(run.attempted);
    metrics = {
        {"request_p50_s", median(run.latencies), "s"},
        {"request_tail_s", percentile(run.latencies, tail_p), "s"},
        {"throughput_per_s", run.busy_s > 0.0 ? run.units / run.busy_s : 0.0, "1/s"},
        {"setup_s", median(setup_times), "s"},
        // VmHWM: unlike ru_maxrss it does not carry a parent's peak across exec.
        {"peak_rss_mb", static_cast<double>(tcr::perf::process_peak_rss_kb()) / 1024.0, "MiB"},
        {"success_frac", n > 0.0 ? (n - static_cast<double>(run.failed)) / n : 0.0, "ratio"},
    };
    std::printf("tail = p%g over %ld requests (%.1f beyond it); setup median of %d\n", tail_p,
                run.attempted, run.attempted * (1.0 - tail_p / 100.0), kSetupRepeats);
    print_workload_names(args.workload, metrics);
  } else {
    const TraceOverhead overhead{median(run.untraced), median(run.traced)};
    metrics = layer_metrics(tracer.totals(), run.registry, w->tally(),
                            static_cast<double>(run.traced.size()), overhead);
    std::printf("%-24s %8s %8s %12s %12s\n", "span", "spans", "calls", "total_s", "self_s");
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("%-24s %8ld %8ld %12.6f %12.6f\n", name.c_str(), t.spans, t.calls, t.total_s,
                  t.self_s);
    }
    std::printf("tracing overhead: traced p50 %.6f s - untraced p50 %.6f s = %+.6f s\n",
                overhead.traced_p50_s, overhead.untraced_p50_s,
                overhead.traced_p50_s - overhead.untraced_p50_s);
    if (!args.trace_out.empty() && !tracer.write_chrome_trace(args.trace_out)) {
      std::fprintf(stderr, "tcr-loadbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  print_result(run, metrics);
  return 0;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  try {
    return loadbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcr-loadbench: %s\n", e.what());
    return 1;
  }
}
