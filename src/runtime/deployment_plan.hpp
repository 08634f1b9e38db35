#pragma once
// Deploy-time half of the serving runtime (paper Sec. 3.3, Fig. 9).
//
// A DeploymentPlan is produced ONCE per model and is immutable afterwards:
//   1. BatchNorm folding,
//   2. int8 quantization with per-layer engine selection — ROM-resident
//      convolutions are tagged for the ROM-CiM macro model, SRAM-resident
//      ones for the SRAM-CiM macro model,
//   3. activation-range calibration (pure float math, engine-free).
// It owns everything requests share: the lowered network, both CiM macro
// models and the two reentrant MvmEngines, each holding the packed weight
// bit-planes of its layers (populated for every quantized layer at
// construction — the software analogue of committing the ROM mask at
// tape-out). It owns NO mutable per-request state — noise keys,
// run statistics and scratch buffers live in ExecutionContext —
// so any number of contexts can execute one plan concurrently (the
// throughput model of mixed ROM+SRAM chips such as YOCO and multi-core
// PCM inference parts, scaled to host threads).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/macro_engine.hpp"
#include "nn/container.hpp"

namespace yoloc {

class ExecutionContext;

/// One canary probe: a fixed input plus the golden logits a HEALTHY
/// deployment produces for it under `seed` (recorded at plan build time,
/// before any fault is injected). Serving replays the probe on a worker's
/// context with the same seed; any float deviation from `golden` means
/// the worker's compute path is corrupted.
struct CanaryProbe {
  std::uint64_t seed = 0;
  Tensor input;
  Tensor golden;
};

/// The plan's canary probes (optional CANARY section of a .yolocplan).
struct CanarySuite {
  std::vector<CanaryProbe> probes;
  [[nodiscard]] bool empty() const { return probes.empty(); }
};

struct DeploymentOptions {
  MacroConfig rom_macro;
  MacroConfig sram_macro;
  int weight_bits = 8;
  int act_bits = 8;
  MacroMvmEngine::Mode mode = MacroMvmEngine::Mode::kAnalog;

  DeploymentOptions();

  /// Field-wise equality (macros included) — the invariant behind plan
  /// round-trips: equal options drive bit-identical lowering/execution.
  bool operator==(const DeploymentOptions&) const = default;

  /// Fail-fast sanity checks, run by every DeploymentPlan constructor and
  /// by the plan loader (plan_serde) before any engine is built.
  void validate() const;
};

/// A lowered, calibrated network image as rebuilt by the plan loader
/// (src/runtime/plan_serde.*): the graph already went through BN folding,
/// int8 quantization and calibration in some earlier process.
struct LoweredPlanImage {
  LayerPtr model;
  /// Count recorded at save time; the constructor re-walks the graph and
  /// rejects the image on mismatch.
  int quantized_layers = 0;
};

class DeploymentPlan {
 public:
  /// Takes ownership of the trained model. Residency flags must already
  /// be set; `calibration_images` drive activation-range calibration.
  DeploymentPlan(LayerPtr trained_model, const Tensor& calibration_images,
                 DeploymentOptions options);

  /// Rebuilds a servable plan from a deserialized image: engines are
  /// reconstructed from `options`, but NO float model is consumed and NO
  /// calibration runs — the image's quantized layers must already carry
  /// finalized activation scales. This is the cold-start path behind
  /// load_plan(): serving starts without any calibration images.
  DeploymentPlan(LoweredPlanImage image, DeploymentOptions options);

  // Engines point at member macros; the plan is pinned in memory.
  DeploymentPlan(const DeploymentPlan&) = delete;
  DeploymentPlan& operator=(const DeploymentPlan&) = delete;

  /// One forward pass through the deployed network on behalf of `ctx`:
  /// installs the context's engine binding on this thread, runs the
  /// quantized model, accumulates activity into the context's stats.
  /// Reentrant: distinct contexts may execute concurrently.
  Tensor execute(const Tensor& images, ExecutionContext& ctx) const;

  [[nodiscard]] const MacroMvmEngine& rom_engine() const {
    return rom_engine_;
  }
  [[nodiscard]] const MacroMvmEngine& sram_engine() const {
    return sram_engine_;
  }
  [[nodiscard]] const CimMacro& rom_macro() const { return rom_macro_; }
  [[nodiscard]] const CimMacro& sram_macro() const { return sram_macro_; }
  /// Total resident bytes of packed weight bit-planes (both engines) and
  /// the one-time cost of building them — deploy-time observability for
  /// capacity planning (the packing is derived state: it is rebuilt at
  /// load, never serialized).
  [[nodiscard]] std::size_t packed_weight_bytes() const;
  [[nodiscard]] double pack_ms() const { return pack_ms_; }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  [[nodiscard]] int quantized_layer_count() const { return quantized_layers_; }
  /// Structural access for the OWNING path (inspection / tests) —
  /// deliberately non-const so holders of a const DeploymentPlan& (the
  /// server, extra contexts) cannot mutate the shared layer graph.
  /// Mutating it while contexts are executing is undefined.
  [[nodiscard]] Layer& model() { return *model_; }

  /// Canary probes shipped with the plan (empty unless recorded or
  /// loaded from an artifact that carries a CANARY section).
  [[nodiscard]] const CanarySuite& canaries() const { return canaries_; }
  void set_canaries(CanarySuite canaries) { canaries_ = std::move(canaries); }

 private:
  /// Recursive conv/linear replacement with per-layer engine selection.
  int lower_network(Layer& node);
  /// Expand every quantized layer's weight buffer into its macro-native
  /// bit-plane layout (once; shared read-only by all contexts).
  void prepack_weights();

  DeploymentOptions options_;
  CimMacro rom_macro_;
  CimMacro sram_macro_;
  MacroMvmEngine rom_engine_;
  MacroMvmEngine sram_engine_;
  LayerPtr model_;
  int quantized_layers_ = 0;
  double pack_ms_ = 0.0;
  CanarySuite canaries_;
};

/// Record `count` canary probes into `plan`: deterministic inputs of
/// `input_shape` (seeded from `base_seed`), each run through a fresh
/// ExecutionContext to capture the golden logits. Must run while the
/// plan's fault models (if any) are INACTIVE — the goldens define
/// "healthy". Replaces any previously recorded suite.
void record_canaries(DeploymentPlan& plan, int count,
                     const std::vector<int>& input_shape,
                     std::uint64_t base_seed = 9001);

}  // namespace yoloc
