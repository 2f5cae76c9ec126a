// tcr-top — live inspector for the heartbeat streams written by the
// benches' --heartbeat flag (bench::HeartbeatOutput / tcr::telemetry).
//
//   tcr-top run.hb                    # one-shot: progress table + anomalies
//   tcr-top --follow run.hb           # tail the stream, re-render per beat
//   tcr-top --json run.hb             # one-shot machine-readable state
//   tcr-top --follow --max-beats 5 run.hb   # stop after 5 new beats (e2e)
//   tcr-top --on-stall=cancel run.hb  # SIGTERM the run on a detected stall
//
// Flags:
//   --follow            keep polling until the stream finishes (a final
//                       heartbeat arrives) or --max-beats new beats rendered;
//                       a stream file replaced by a new run is followed
//                       from its start
//   --interval S        follow-mode poll period in seconds (default 0.5)
//   --max-beats N       follow mode: exit 0 after rendering N new beats
//                       (the stream may keep running — used by e2e gates)
//   --timeout S         follow mode: give up after S seconds without the
//                       stream finishing (default 60; exit 3)
//   --json              print the state as one JSON object instead of the
//                       table (in follow mode, one JSON line per render)
//   --on-stall=cancel   when an anomaly fires, send SIGTERM to the stream's
//                       writer pid — the run's SignalGuard turns that into a
//                       cooperative CancelToken unwind
//   --stall-tol X       relative objective-improvement threshold for the
//                       convergence-stall anomaly (default 1e-9, same as
//                       tcr-trace)
//   --window N          trailing window in beats for rate baselines
//                       (default 5)
//
// A stream whose tail is torn (the writer was killed mid-append) renders
// with "stream truncated (crash?)" — same info in the JSON as
// "truncated_tail": true. Exit codes: 0 ok, 2 usage/unreadable stream,
// 3 follow-mode timeout.
#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "tcr/telemetry/inspect.hpp"
#include "tcr/telemetry/stream.hpp"

namespace {

using namespace tcr;

int usage() {
  std::cerr << "usage: tcr-top [--follow] [--json] [--interval S] [--max-beats N]\n"
               "               [--timeout S] [--on-stall=cancel] [--stall-tol X]\n"
               "               [--window N] <stream.hb>\n";
  return 2;
}

void render(const telemetry::RunState& state, const telemetry::AnomalyOptions& opts,
            bool as_json, bool truncated, bool follow_mode, long pid_to_cancel,
            bool* cancel_fired) {
  const std::vector<telemetry::Anomaly> anomalies = telemetry::detect_anomalies(state, opts);
  if (as_json) {
    telemetry::state_json(state, anomalies, truncated).dump(std::cout);
    std::cout << "\n";
  } else {
    if (follow_mode) std::cout << "----\n";
    std::cout << telemetry::render_table(state, anomalies, truncated);
  }
  std::cout.flush();
  if (!anomalies.empty() && pid_to_cancel > 0 && !*cancel_fired) {
    std::cerr << "tcr-top: anomaly detected — cancelling run (SIGTERM pid "
              << pid_to_cancel << ")\n";
    ::kill(static_cast<pid_t>(pid_to_cancel), SIGTERM);
    *cancel_fired = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Hand-rolled parsing: the tool takes a positional stream path, which
  // tcr::Cli (flag-only) would silently drop.
  std::string path;
  bool follow = false, as_json = false, on_stall_cancel = false;
  double interval = 0.5, timeout = 60.0;
  long max_beats = -1;
  telemetry::AnomalyOptions aopts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--on-stall=cancel") {
      on_stall_cancel = true;
    } else if (arg == "--interval") {
      if (i + 1 >= argc) return usage();
      interval = std::atof(argv[++i]);
    } else if (arg == "--timeout") {
      if (i + 1 >= argc) return usage();
      timeout = std::atof(argv[++i]);
    } else if (arg == "--max-beats") {
      if (i + 1 >= argc) return usage();
      max_beats = std::atol(argv[++i]);
    } else if (arg == "--stall-tol") {
      if (i + 1 >= argc) return usage();
      aopts.stall_tol = std::atof(argv[++i]);
    } else if (arg == "--window") {
      if (i + 1 >= argc) return usage();
      aopts.trailing_window = static_cast<int>(std::atol(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (interval <= 0.0) interval = 0.5;

  telemetry::StreamReader reader(path);
  telemetry::RunState state;
  bool cancel_fired = false;

  const auto poll_into_state = [&](std::string* error) -> long {
    std::vector<obs::Json> records;
    if (!reader.poll(&records, error)) return -1;
    if (reader.restarted()) {
      // A new run replaced the stream file: fold it from scratch.
      state = telemetry::RunState{};
      cancel_fired = false;
    }
    long new_beats = 0;
    for (const obs::Json& rec : records) {
      const std::size_t beats_before = state.beats.size();
      if (!state.apply(rec, error)) return -1;
      new_beats += static_cast<long>(state.beats.size() - beats_before);
    }
    return new_beats;
  };

  if (!follow) {
    std::string error;
    if (poll_into_state(&error) < 0) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (!reader.opened()) {
      std::cerr << "error: '" << path << "': no heartbeat stream (missing or empty)\n";
      return 2;
    }
    render(state, aopts, as_json, reader.truncated_tail(), /*follow_mode=*/false,
           on_stall_cancel ? state.pid : 0, &cancel_fired);
    return 0;
  }

  // Follow mode: render whenever new beats arrive, until the stream
  // finishes, --max-beats new beats were rendered, or the timeout expires.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout);
  long rendered = 0;
  while (true) {
    std::string error;
    const long new_beats = poll_into_state(&error);
    if (new_beats < 0) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (new_beats > 0) {
      rendered += new_beats;
      render(state, aopts, as_json, reader.truncated_tail(), /*follow_mode=*/true,
             on_stall_cancel ? state.pid : 0, &cancel_fired);
    }
    if (state.finished) return 0;
    if (max_beats >= 0 && rendered >= max_beats) return 0;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::cerr << "tcr-top: timed out after " << timeout
                << " s waiting for the stream to finish\n";
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}
