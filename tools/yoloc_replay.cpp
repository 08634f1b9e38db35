// yoloc_replay — deterministically replay a recorded serving workload
// against a deployed plan.
//
//   build/yoloc_replay TRACE --plan=FILE [--workers=N]
//                      [--max-microbatch=M] [--no-pace] [--speed=X]
//                      [--seed=N] [--trace-out=PATH] [--check] [--json]
//
// TRACE is a .yoloctrace artifact (record one with
// `yoloc_metrics_dump --record-out=...` or any scheduler running with
// record_admissions); --plan is a .yolocplan deployment image. The
// replay submits the recorded admission stream single-threaded in
// record order — reproducing admission ids, and with them the noise
// seeds behind the determinism contract — against a
// fresh Scheduler, then prints the recorded-vs-replayed per-class
// outcomes and the usual metrics snapshot.
//
// Pacing is on by default (inter-arrival gaps are slept out; --speed=2
// replays twice as fast); --no-pace floods the scheduler as fast as it
// can accept. --workers / --max-microbatch default to the recorded
// scheduler shape so a bare replay reproduces the original run;
// override them to ask "what if" questions of a production trace
// (fewer workers, different batching) without re-driving live traffic.
// --trace-out additionally samples every replayed request and writes
// the chrome://tracing JSON. --check exits 1 when the replayed
// per-class outcome counts differ from the recorded ones.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "runtime/plan_serde.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload_trace.hpp"

namespace {

using namespace yoloc;

void print_counts(const char* what,
                  const std::array<std::uint64_t, kPriorityClassCount>& served,
                  const std::array<std::uint64_t, kPriorityClassCount>& expired,
                  const std::array<std::uint64_t, kPriorityClassCount>& rejected) {
  std::printf("%-9s", what);
  for (int c = 0; c < kPriorityClassCount; ++c) {
    const auto i = static_cast<std::size_t>(c);
    std::printf("  %s %llu/%llu/%llu",
                priority_name(static_cast<Priority>(c)),
                static_cast<unsigned long long>(served[i]),
                static_cast<unsigned long long>(expired[i]),
                static_cast<unsigned long long>(rejected[i]));
  }
  std::printf("   (served/expired/rejected)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string plan_path;
  std::string trace_out;
  int workers = -1;
  int max_microbatch = -1;
  bool check = false;
  bool json = false;
  ReplayOptions replay;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--plan=", 7) == 0) {
      plan_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--max-microbatch=", 17) == 0) {
      max_microbatch = std::atoi(argv[i] + 17);
    } else if (std::strcmp(argv[i], "--no-pace") == 0) {
      replay.pace = false;
    } else if (std::strncmp(argv[i], "--speed=", 8) == 0) {
      replay.speed = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      replay.input_seed =
          static_cast<std::uint64_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] != '-' && trace_path.empty()) {
      trace_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: yoloc_replay TRACE --plan=FILE [--workers=N] "
                   "[--max-microbatch=M] [--no-pace] [--speed=X] [--seed=N] "
                   "[--trace-out=PATH] [--check] [--json]\n");
      return 2;
    }
  }
  if (trace_path.empty() || plan_path.empty()) {
    std::fprintf(stderr, "yoloc_replay: TRACE and --plan are required\n");
    return 2;
  }

  try {
    const WorkloadTrace trace = load_workload_trace(trace_path);
    auto plan = load_plan(plan_path);

    SchedulerOptions options;
    options.workers = workers >= 0 ? workers
                                   : static_cast<int>(trace.workers);
    options.max_microbatch =
        max_microbatch >= 1
            ? max_microbatch
            : (trace.max_microbatch >= 1 ? trace.max_microbatch : 8);
    if (!trace_out.empty()) options.trace_sampling = 1.0;

    std::printf("replaying %zu recorded submissions (%s, speed %.3gx) "
                "workers=%d max_microbatch=%d\n",
                trace.records.size(),
                replay.pace ? "paced" : "as-fast-as-possible", replay.speed,
                options.workers, options.max_microbatch);

    const ReplayResult result = replay_trace(trace, *plan, options, replay);

    print_counts("recorded", trace.served, trace.expired, trace.rejected);
    print_counts("replayed", result.served, result.expired, result.rejected);
    std::printf("outcome counts %s, replay took %.3f s\n",
                result.counts_match ? "MATCH" : "DIFFER", result.seconds);
    if (json) {
      std::printf("%s\n", result.snapshot.to_json().c_str());
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
      out.write(result.trace_json.data(),
                static_cast<std::streamsize>(result.trace_json.size()));
      out.flush();
      if (!out.good()) {
        std::fprintf(stderr, "yoloc_replay: cannot write '%s'\n",
                     trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote trace to %s\n", trace_out.c_str());
    }
    return check && !result.counts_match ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yoloc_replay: %s\n", e.what());
    return 1;
  }
}
