#pragma once
// Recorded serving workloads and their deterministic replay.
//
// When SchedulerOptions::record_admissions is set, the scheduler logs
// every submission — arrival offset from the first one, priority class,
// effective relative deadline and NCHW input geometry — into an
// in-memory admission trace. A WorkloadTrace freezes that log (plus the
// per-class outcome counters and the scheduler shape that produced it)
// into a versioned, CRC-checked binary artifact, the same
// magic/version/CRC discipline as the .yolocplan format.
//
// replay_trace() drives any DeploymentPlan + SchedulerOptions with a
// recorded trace: submissions happen single-threaded in record order,
// so admission ids — and with them the per-request noise seeds and the
// determinism contract — are reproduced exactly.
// Input CONTENT is synthesized per recorded geometry from a fixed seed
// (the trace records shapes, not pixels), so a replay is
// self-contained: one trace file + one plan file reproduces a serving
// scenario on any host. Pacing (sleeping out the recorded
// inter-arrival gaps, optionally time-scaled) is on by default and can
// be disabled for as-fast-as-possible stress replays.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/metrics_registry.hpp"
#include "serve/request.hpp"

namespace yoloc {

class DeploymentPlan;
struct SchedulerOptions;

/// One recorded submission (accepted or not).
struct AdmissionRecord {
  /// Arrival offset [ns] from the FIRST recorded submission.
  std::uint64_t offset_ns = 0;
  Priority priority = Priority::kBatch;
  /// Effective RELATIVE deadline [ns] that governed the request (after
  /// the scheduler's default was applied); 0 = none.
  std::uint64_t deadline_ns = 0;
  /// NCHW geometry of the submitted input.
  std::array<std::int32_t, 4> shape{1, 0, 0, 0};
};

inline constexpr std::uint32_t kWorkloadTraceFormatVersion = 1;
inline constexpr const char* kWorkloadTraceExtension = ".yoloctrace";

/// A recorded workload: the admission log plus the outcome counters and
/// scheduler shape observed at recording time (the replay tool prints
/// recorded-vs-replayed outcomes side by side).
struct WorkloadTrace {
  std::vector<AdmissionRecord> records;
  /// Scheduler shape the recording ran under (informational; a replay
  /// may override both).
  std::int32_t workers = 0;
  std::int32_t max_microbatch = 0;
  /// Per-class outcomes at recording time.
  std::array<std::uint64_t, kPriorityClassCount> submitted{};
  std::array<std::uint64_t, kPriorityClassCount> served{};
  std::array<std::uint64_t, kPriorityClassCount> expired{};
  std::array<std::uint64_t, kPriorityClassCount> rejected{};

  /// Versioned little-endian encoding ("YOLOCTRC" magic, format
  /// version, CRC32 over the payload).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Inverse of serialize(); throws CheckError on bad magic,
  /// unsupported version, CRC mismatch or truncation.
  static WorkloadTrace deserialize(const std::uint8_t* data,
                                   std::size_t size);
};

void save_workload_trace(const WorkloadTrace& trace, const std::string& path);
WorkloadTrace load_workload_trace(const std::string& path);

struct ReplayOptions {
  /// Sleep out the recorded inter-arrival gaps (scaled by `speed`).
  /// Off = submit as fast as possible.
  bool pace = true;
  /// Time scale when pacing: 2.0 replays twice as fast. Must be > 0.
  double speed = 1.0;
  /// Seed for the synthesized input content (per-geometry, cached).
  std::uint64_t input_seed = 7;
  /// Re-record admissions during the replay (ReplayResult::replayed),
  /// e.g. to verify a replay reproduces the recorded admission order.
  bool record = false;
};

struct ReplayResult {
  /// Scheduler metrics after the replay drained.
  MetricsSnapshot snapshot;
  /// Wall-clock seconds the replay took (submission through drain).
  double seconds = 0.0;
  /// Per-class outcomes observed through the returned futures.
  std::array<std::uint64_t, kPriorityClassCount> served{};
  std::array<std::uint64_t, kPriorityClassCount> expired{};
  std::array<std::uint64_t, kPriorityClassCount> rejected{};
  /// Replayed per-class outcomes equal the recorded ones exactly.
  bool counts_match = false;
  /// The re-recorded trace (ReplayOptions::record only).
  WorkloadTrace replayed;
  /// Chrome trace-event JSON of the replay (only when the scheduler
  /// options set trace_sampling > 0; empty otherwise).
  std::string trace_json;
};

/// Replay `trace` against `plan` under `scheduler_options` (its
/// record_admissions flag is overridden by `options.record`).
/// Submissions run single-threaded in record order, so admission ids
/// are reproduced exactly.
ReplayResult replay_trace(const WorkloadTrace& trace,
                          const DeploymentPlan& plan,
                          const SchedulerOptions& scheduler_options,
                          const ReplayOptions& options = {});

}  // namespace yoloc
