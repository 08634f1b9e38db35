#pragma once
// Top-level YOLoC deployment API (paper Sec. 3.3, Fig. 9).
//
// Historically this class fused one-time network lowering with per-request
// execution state. It is now a thin facade over the runtime split:
//   * DeploymentPlan    — immutable deploy-time product (BN folding, int8
//                         quantization with ROM/SRAM engine selection,
//                         calibrated activation ranges),
//   * ExecutionContext  — the facade's single serving context (noise
//                         keys, run statistics, scratch buffers).
// One framework == one plan + one context, preserving the original
// single-stream semantics (stats accumulate across infer() calls until
// reset_stats()). For parallel traffic, share framework.plan() across
// many ExecutionContexts or put an InferenceServer in front of it
// (src/runtime/inference_server.hpp).

#include <memory>

#include "data/classification.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"

namespace yoloc {

/// DeploymentOptions (macros, bit widths, mode) plus the facade-owned
/// serving seed. Extending the plan options keeps the two structs from
/// drifting — a field added to DeploymentOptions reaches the facade
/// automatically.
struct FrameworkOptions : DeploymentOptions {
  std::uint64_t noise_seed = 2024;
};

class YolocFramework {
 public:
  /// Takes ownership of the trained model. Residency flags must already
  /// be set; `calibration_images` drive activation-range calibration.
  YolocFramework(LayerPtr trained_model, const Tensor& calibration_images,
                 FrameworkOptions options);

  /// Quantized inference through the macro models.
  Tensor infer(const Tensor& images);

  /// Top-1 accuracy of the deployed (quantized, analog) model.
  double evaluate_accuracy(const LabeledDataset& dataset,
                           int batch_size = 64);

  /// Activity of the ROM / SRAM macros since the last reset.
  [[nodiscard]] const MacroRunStats& rom_stats() const;
  [[nodiscard]] const MacroRunStats& sram_stats() const;
  void reset_stats();

  /// Total modeled macro energy [pJ] since the last reset.
  [[nodiscard]] double total_energy_pj() const;

  [[nodiscard]] int quantized_layer_count() const {
    return plan_->quantized_layer_count();
  }
  [[nodiscard]] Layer& model() { return plan_->model(); }

  /// The shared deploy-time product — hand this to additional
  /// ExecutionContexts or an InferenceServer for parallel serving.
  [[nodiscard]] const DeploymentPlan& plan() const { return *plan_; }
  /// The facade's own serving context.
  [[nodiscard]] ExecutionContext& context() { return *context_; }

 private:
  std::unique_ptr<DeploymentPlan> plan_;
  std::unique_ptr<ExecutionContext> context_;
};

}  // namespace yoloc
