// Network lowering tests: BatchNorm folding exactness, int8 quantized
// inference fidelity against the float reference (through an exact-cost
// DeploymentPlan, whose integer products are exact), and the calibration
// workflow.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

LayerPtr small_convnet(Rng& rng, bool with_bn) {
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, !with_bn, rng, "c1"));
  if (with_bn) net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn1"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Conv2d>(4, 4, 3, 1, 1, !with_bn, rng, "c2"));
  if (with_bn) net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn2"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 3, true, rng, "fc"));
  return net;
}

/// Folds, lowers and calibrates `net` on `calibration` into an
/// exact-cost plan: integer products exact, costs modeled.
std::unique_ptr<DeploymentPlan> exact_cost_plan(LayerPtr net,
                                                const Tensor& calibration) {
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kExactCost;
  return std::make_unique<DeploymentPlan>(std::move(net), calibration,
                                          std::move(options));
}

Tensor run_plan(const DeploymentPlan& plan, const Tensor& x) {
  ExecutionContext ctx(plan, /*noise_seed=*/1);
  return ctx.infer(x);
}

TEST(BnFold, EvalOutputUnchanged) {
  Rng rng(1);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  // Push a few training batches through so running stats are non-trivial.
  Tensor warm = Tensor::randn({8, 2, 6, 6}, rng);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, /*train=*/true);

  Tensor x = Tensor::randn({4, 2, 6, 6}, rng);
  Tensor before = net->forward(x, /*train=*/false);
  const int folds = fold_batchnorm(*net);
  EXPECT_EQ(folds, 2);
  Tensor after = net->forward(x, /*train=*/false);
  EXPECT_LT(max_abs_diff(before, after), 1e-4f);
}

TEST(BnFold, RemovesBnLayers) {
  Rng rng(2);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  auto* seq = dynamic_cast<Sequential*>(net.get());
  const std::size_t size_before = seq->size();
  fold_batchnorm(*net);
  EXPECT_EQ(seq->size(), size_before - 2);
}

TEST(BnFold, NoOpWithoutBn) {
  Rng rng(3);
  LayerPtr net = small_convnet(rng, /*with_bn=*/false);
  EXPECT_EQ(fold_batchnorm(*net), 0);
}

TEST(Lowering, ReplacesConvAndLinear) {
  Rng rng(4);
  LayerPtr net = small_convnet(rng, /*with_bn=*/false);
  const Tensor calib = Tensor::rand_uniform({4, 2, 6, 6}, rng, 0.0f, 1.0f);
  const auto plan = exact_cost_plan(std::move(net), calib);
  EXPECT_EQ(plan->quantized_layer_count(), 3);  // two convs + one linear
}

TEST(Lowering, DeployBeforeCalibrationThrows) {
  Rng rng(5);
  Conv2d conv(2, 4, 3, 1, 1, true, rng, "c");
  Linear lin(4, 3, true, rng, "fc");
  QuantConv2d qconv(conv, EngineKind::kRom);
  QuantLinear qlin(lin, EngineKind::kSram);
  // Both kinds bound to a working engine, so only the missing
  // calibration can make a forward pass throw.
  const CimMacro macro(default_rom_macro());
  const MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kExactCost);
  MacroRunStats stats;
  MvmBinding binding;
  binding.slot(EngineKind::kRom) = {&engine, {nullptr, &stats, nullptr}};
  binding.slot(EngineKind::kSram) = binding.slot(EngineKind::kRom);
  MvmBinding::Scope scope(binding);

  Tensor x = Tensor::rand_uniform({1, 2, 6, 6}, rng, 0.0f, 1.0f);
  Tensor v = Tensor::rand_uniform({1, 4}, rng, 0.0f, 1.0f);
  EXPECT_THROW(qconv.forward(x, false), std::runtime_error);
  EXPECT_THROW(qlin.forward(v, false), std::runtime_error);

  qconv.set_calibration_mode(true);
  qlin.set_calibration_mode(true);
  (void)qconv.forward(x, false);
  (void)qlin.forward(v, false);
  qconv.finalize_calibration();
  qlin.finalize_calibration();
  EXPECT_NO_THROW(qconv.forward(x, false));
  EXPECT_NO_THROW(qlin.forward(v, false));
}

TEST(Lowering, QuantizedCloseToFloatReference) {
  Rng rng(6);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  Tensor warm = Tensor::rand_uniform({8, 2, 6, 6}, rng, 0.0f, 1.0f);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, true);

  Tensor x = Tensor::rand_uniform({4, 2, 6, 6}, rng, 0.0f, 1.0f);
  Tensor reference = net->forward(x, false);

  const auto plan = exact_cost_plan(std::move(net), warm);
  Tensor quantized = run_plan(*plan, x);

  // int8 weights + uint8 activations: a few percent of the output range.
  const float ref_range = reference.max_abs();
  EXPECT_LT(max_abs_diff(reference, quantized), 0.08f * ref_range + 0.05f);
}

TEST(Lowering, ArgmaxAgreementOnRandomInputs) {
  Rng rng(7);
  LayerPtr net = small_convnet(rng, /*with_bn=*/true);
  Tensor warm = Tensor::rand_uniform({16, 2, 6, 6}, rng, 0.0f, 1.0f);
  for (int i = 0; i < 5; ++i) (void)net->forward(warm, true);

  Tensor x = Tensor::rand_uniform({32, 2, 6, 6}, rng, 0.0f, 1.0f);
  const auto ref_pred = argmax_rows(net->forward(x, false));

  const auto plan = exact_cost_plan(std::move(net), warm);
  const auto q_pred = argmax_rows(run_plan(*plan, x));

  int agree = 0;
  for (std::size_t i = 0; i < ref_pred.size(); ++i) {
    if (ref_pred[i] == q_pred[i]) ++agree;
  }
  EXPECT_GE(agree, 29);  // >= ~90% agreement
}

TEST(QuantLayers, BackwardThrows) {
  Rng rng(8);
  Conv2d conv(1, 1, 1, 1, 0, false, rng, "c");
  QuantConv2d qconv(conv, EngineKind::kRom);
  Tensor g({1, 1, 2, 2});
  EXPECT_THROW(qconv.backward(g), std::runtime_error);
}

TEST(QuantLayers, CalibrationRecordsScale) {
  Rng rng(9);
  Conv2d conv(1, 2, 3, 1, 1, false, rng, "c");
  QuantConv2d qconv(conv, EngineKind::kRom);
  EXPECT_FALSE(qconv.is_calibrated());
  qconv.set_calibration_mode(true);
  Tensor x = Tensor::rand_uniform({2, 1, 4, 4}, rng, 0.0f, 2.0f);
  (void)qconv.forward(x, false);
  qconv.finalize_calibration();
  EXPECT_TRUE(qconv.is_calibrated());
  // Scale ~ max/255 with max close to 2.
  EXPECT_NEAR(qconv.act_scale(), 2.0f / 255.0f, 0.5f / 255.0f);
}

}  // namespace
}  // namespace yoloc
