#pragma once
// Serving front-end over a shared DeploymentPlan — a thin facade over
// the scheduling subsystem in src/serve/.
//
// Historically this class owned its own FIFO queue and fixed
// micro-batching worker pool; that logic now lives in serve::Scheduler
// (continuous batching, priority classes, deadlines, telemetry). The
// facade keeps the original submit()/infer() surface — existing callers
// see identical behavior for plain traffic — while exposing the
// scheduler for callers that want priorities, deadlines, or the full
// metrics snapshot.
//
// Determinism: request i's outputs are bit-identical to a serial
// ExecutionContext run seeded noise_seed + i, independent of worker
// count, micro-batching or scheduling; with max_microbatch = 1 and
// single-class traffic the merged stat sums are too (see the contract
// note in serve/scheduler.hpp).

#include <cstdint>
#include <future>

#include "serve/scheduler.hpp"

namespace yoloc {

struct ServerOptions {
  /// Worker threads. 0 = parallel_workers() (which honours YOLOC_THREADS).
  int workers = 0;
  /// Max requests fused into one forward pass.
  int max_microbatch = 8;
  /// Base noise seed; request id i is served with noise_seed + i.
  std::uint64_t noise_seed = 2024;
  /// Per-request tracing sample rate in [0, 1]; 0 (default) disables
  /// collection entirely. See SchedulerOptions::trace_sampling.
  double trace_sampling = 0.0;
};

/// Aggregate served-work counters, kept for existing callers; the full
/// per-class latency/occupancy telemetry lives in metrics_snapshot().
struct ServerMetrics {
  // Successfully served work only; failed_requests aggregates execution
  // failures, deadline expiries and admission rejections so throughput /
  // energy-per-image figures are not skewed by work that produced no
  // output.
  std::uint64_t requests = 0;
  std::uint64_t images = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed_requests = 0;
  [[nodiscard]] double avg_microbatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

class InferenceServer {
 public:
  /// For full scheduler control (priority lanes, deadlines, admission
  /// caps) construct a serve::Scheduler directly instead.
  explicit InferenceServer(const DeploymentPlan& plan,
                           ServerOptions options = {});
  ~InferenceServer() = default;  // Scheduler drains the queue, then joins

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one request (rank-4 NCHW, any leading batch extent >= 1)
  /// into the default (batch) priority lane. The future yields the model
  /// output for exactly that input.
  std::future<Tensor> submit(Tensor images);

  /// Enqueue with explicit scheduling hints (priority class, deadline).
  std::future<Tensor> submit(Tensor images, SubmitOptions options);

  /// Synchronous convenience: split `images` into per-image requests,
  /// serve them all, and re-stack the outputs in submission order.
  Tensor infer(const Tensor& images);

  /// Block until every accepted request has completed — futures
  /// fulfilled AND stats/metrics accounting settled. Futures become
  /// ready slightly before the accounting, so call this before reading
  /// stats/metrics when you need a consistent snapshot.
  void wait_idle();

  /// Merged macro activity across completed batches (deterministic
  /// batch-formation-order merge).
  [[nodiscard]] MacroRunStats rom_stats() const;
  [[nodiscard]] MacroRunStats sram_stats() const;
  [[nodiscard]] double total_energy_pj() const;
  void reset_stats();

  /// Legacy aggregate counters (derived from the metrics snapshot).
  [[nodiscard]] ServerMetrics metrics() const;
  /// Full telemetry: per-class latency quantiles, queue depths, batch
  /// occupancy, rolling throughput. JSON via MetricsSnapshot::to_json().
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;
  /// Prometheus text exposition of the same snapshot (see
  /// docs/serving.md for every metric name, type and meaning).
  [[nodiscard]] std::string to_prometheus() const {
    return scheduler_.to_prometheus();
  }

  /// Tracing passthroughs (active when ServerOptions::trace_sampling
  /// > 0): chrome://tracing JSON of the sampled requests so far.
  [[nodiscard]] std::string trace_json() const {
    return scheduler_.trace_json();
  }
  void write_trace(const std::string& path) const {
    scheduler_.write_trace(path);
  }

  [[nodiscard]] int worker_count() const { return scheduler_.worker_count(); }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }

 private:
  Scheduler scheduler_;
};

}  // namespace yoloc
