#pragma once
// Serve-time half of the runtime: all mutable per-request state.
//
// An ExecutionContext is cheap to construct and holds exactly what one
// in-flight request needs while executing a shared DeploymentPlan:
//   * the analog-noise keys (NoiseKeys, core/macro_engine.hpp) shared by
//     the ROM and SRAM engines, which hash their macro kind into each key,
//   * per-request MacroRunStats for both macros,
//   * scratch buffers (im2col matrix, quantized activations, int32
//     accumulator, macro tiling chunks) reused across layers and calls so
//     the hot loop stops allocating.
//
// Determinism: two contexts with the same seed produce bit-identical
// outputs for the same inputs against the same plan, regardless of which
// thread runs them or what else runs concurrently — the property the
// runtime concurrency tests pin down. Noise follows the image: image i
// of a pass is keyed by its request's seed and its index within that
// request, so stacking requests into one pass (reseed with segments)
// reproduces each request's serial outputs.

#include <cstdint>
#include <vector>

#include "core/macro_engine.hpp"

namespace yoloc {

class DeploymentPlan;

class ExecutionContext {
 public:
  /// One request of a fused micro-batch: its noise seed and the number
  /// of images it stacked.
  struct NoiseSegment {
    std::uint64_t seed = 0;
    int images = 0;
  };

  explicit ExecutionContext(const DeploymentPlan& plan,
                            std::uint64_t noise_seed = 2024);

  // Holds scratch + noise keys; handed out by pointer into MvmSessions
  // while executing, so keep it pinned.
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Quantized inference through the plan's macro engines. Stats
  /// accumulate across calls until reset_stats().
  Tensor infer(const Tensor& images);

  /// Restart the noise from `noise_seed`: image i of every following
  /// pass is keyed (noise_seed, i) and the layer ordinal restarts at 0.
  /// Stats are untouched.
  void reseed(std::uint64_t noise_seed);
  /// Restart the noise for ONE pass over requests stacked in `segments`
  /// order: each request's images are keyed by its own seed and their
  /// index within the request. The next infer() must carry exactly the
  /// segments' total image count.
  void reseed(std::vector<NoiseSegment> segments);

  /// Activity of the ROM / SRAM macros since the last reset.
  [[nodiscard]] const MacroRunStats& rom_stats() const { return rom_stats_; }
  [[nodiscard]] const MacroRunStats& sram_stats() const {
    return sram_stats_;
  }
  void reset_stats();

  /// Total modeled macro energy [pJ] since the last reset.
  [[nodiscard]] double total_energy_pj() const;

  [[nodiscard]] const DeploymentPlan& plan() const { return *plan_; }

  /// Install (or clear, with nullptr) a per-layer trace sink: while set,
  /// every quant layer executed through this context reports its
  /// im2col/MVM phase timings to the sink. Observer-only — never affects
  /// outputs, stats or noise.
  void set_layer_trace(LayerTraceSink* trace) { trace_ = trace; }
  [[nodiscard]] LayerTraceSink* layer_trace() const { return trace_; }

 private:
  friend class DeploymentPlan;  // wires noise/stats/scratch into the binding

  /// Fill noise_.images for a pass over `images` images.
  void key_images(int images);

  const DeploymentPlan* plan_;
  std::vector<NoiseSegment> segments_;  // empty: every image keyed seed_
  std::uint64_t seed_ = 0;
  NoiseKeys noise_;
  MacroRunStats rom_stats_;
  MacroRunStats sram_stats_;
  MvmScratch scratch_;
  LayerTraceSink* trace_ = nullptr;
};

}  // namespace yoloc
