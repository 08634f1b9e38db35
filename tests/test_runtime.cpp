// Runtime concurrency tests: the deploy/serve split must make a shared
// DeploymentPlan fully reentrant — N threads with per-context seeds
// produce bit-identical outputs and stats to serial execution — and the
// serve::Scheduler must preserve that determinism through its queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "macro_oracle.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

// Pin the worker pool before anything in this binary touches it: the
// YOLOC_THREADS override keeps the concurrency paths exercised even on
// single-core CI boxes (and doubles as the env-override integration
// check below).
const bool g_env_pinned = [] {
  setenv("YOLOC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

LayerPtr make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto backbone = std::make_unique<Sequential>("backbone");
  backbone->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "b.c1"));
  backbone->add(std::make_unique<ReLU>());
  backbone->add(std::make_unique<MaxPool2d>(2));
  backbone->add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, true, rng, "b.c2"));
  backbone->add(std::make_unique<ReLU>());
  auto net = std::make_unique<Sequential>("net");
  net->add(std::move(backbone));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(6, 5, true, rng, "head.fc"));
  // Backbone in ROM, head in SRAM, so both engines see traffic.
  for (Parameter* p : net->parameters()) {
    p->rom_resident = p->name.find("b.c") != std::string::npos;
  }
  return net;
}

/// Analog plans raise cell mismatch from its 0.02 default to 0.1 on both
/// macros: at 0.02 no logit of this small model depends on the noise
/// seed, so the "bit-identical to serial seed" checks below could not
/// see a noise-keying bug (Runtime.ConcurrentContextsBitIdenticalToSerial
/// asserts that two seeds differ).
std::unique_ptr<DeploymentPlan> make_plan(MacroMvmEngine::Mode mode,
                                          std::uint64_t model_seed = 21) {
  LayerPtr net = make_model(model_seed);
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = mode;
  if (mode == MacroMvmEngine::Mode::kAnalog) {
    options.rom_macro.bitline.sigma_cell = 0.1;
    options.sram_macro.bitline.sigma_cell = 0.1;
  }
  return std::make_unique<DeploymentPlan>(std::move(net), calib,
                                          std::move(options));
}

std::vector<Tensor> make_requests(int count) {
  Rng rng(55);
  std::vector<Tensor> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    xs.push_back(Tensor::rand_uniform({1, 3, 8, 8}, rng, 0.0f, 1.0f));
  }
  return xs;
}

::testing::AssertionResult bit_identical(const Tensor& a, const Tensor& b) {
  if (!same_shape(a, b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "payload differs (max |a-b| = " << max_abs_diff(a, b) << ")";
  }
  return ::testing::AssertionSuccess();
}

void expect_stats_identical(const MacroRunStats& a, const MacroRunStats& b) {
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.macro_ops, b.macro_ops);
  EXPECT_EQ(a.energy_pj(), b.energy_pj());  // bit-identical double sums
  EXPECT_EQ(a.latency_ns, b.latency_ns);
}

TEST(ParallelWorkers, EnvOverrideApplies) {
  EXPECT_EQ(parallel_workers(), 4u);
}

TEST(ParallelWorkers, ResolutionClampsAndFallsBack) {
  EXPECT_EQ(resolve_worker_count(nullptr, 7u), 7u);
  EXPECT_EQ(resolve_worker_count("", 7u), 7u);
  EXPECT_EQ(resolve_worker_count("abc", 5u), 5u);
  EXPECT_EQ(resolve_worker_count("12abc", 5u), 5u);
  EXPECT_EQ(resolve_worker_count("3", 1u), 3u);
  EXPECT_EQ(resolve_worker_count("0", 5u), 1u);
  EXPECT_EQ(resolve_worker_count("-2", 5u), 1u);
  EXPECT_EQ(resolve_worker_count("999", 5u), 64u);
}

TEST(Runtime, ConcurrentContextsBitIdenticalToSerial) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 8;
  const auto xs = make_requests(kRequests);
  const auto seed_of = [](int i) { return 100u + static_cast<unsigned>(i); };

  // Serial reference: one fresh context per request.
  std::vector<Tensor> serial_out(kRequests);
  MacroRunStats serial_rom, serial_sram;
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, seed_of(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
    serial_rom.accumulate(ctx.rom_stats());
    serial_sram.accumulate(ctx.sram_stats());
  }
  EXPECT_GT(serial_rom.macs, 0u);
  EXPECT_GT(serial_sram.macs, 0u);
  // The noise reaches the logits: another seed gives another output.
  EXPECT_FALSE(bit_identical(serial_out[0],
                             ExecutionContext(*plan, seed_of(1)).infer(xs[0])));

  // Concurrent: N threads share the plan, each with its own context.
  std::vector<Tensor> parallel_out(kRequests);
  std::vector<MacroRunStats> rom_stats(kRequests), sram_stats(kRequests);
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      ExecutionContext ctx(*plan, seed_of(i));
      parallel_out[static_cast<std::size_t>(i)] =
          ctx.infer(xs[static_cast<std::size_t>(i)]);
      rom_stats[static_cast<std::size_t>(i)] = ctx.rom_stats();
      sram_stats[static_cast<std::size_t>(i)] = ctx.sram_stats();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)],
                              parallel_out[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
  // Merged in request order, the stats sums are bit-identical too.
  MacroRunStats merged_rom, merged_sram;
  for (int i = 0; i < kRequests; ++i) {
    merged_rom.accumulate(rom_stats[static_cast<std::size_t>(i)]);
    merged_sram.accumulate(sram_stats[static_cast<std::size_t>(i)]);
  }
  expect_stats_identical(serial_rom, merged_rom);
  expect_stats_identical(serial_sram, merged_sram);
}

TEST(Runtime, ScratchReuseIsDeterministic) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const auto xs = make_requests(1);
  ExecutionContext ctx(*plan, 9001);
  Tensor first = ctx.infer(xs[0]);
  ctx.reseed(9001);
  Tensor second = ctx.infer(xs[0]);  // warm scratch, same stream
  EXPECT_TRUE(bit_identical(first, second));
}

TEST(Runtime, PackedPlanMatchesOracleEnginesAcrossResidency) {
  // The plan executes through its packed engines. Re-running the same
  // lowered graph through the per-call oracle engines
  // (macro_oracle.hpp) with identically keyed noise must produce
  // bit-identical outputs and stats, across mixed ROM/SRAM residency.
  for (const auto mode :
       {MacroMvmEngine::Mode::kAnalog, MacroMvmEngine::Mode::kExactCost}) {
    auto plan = make_plan(mode);
    EXPECT_GT(plan->packed_weight_bytes(), 0u);
    EXPECT_GT(plan->rom_engine().packed_cache().entries(), 0u);   // b.c*
    EXPECT_GT(plan->sram_engine().packed_cache().entries(), 0u);  // head.fc
    const auto xs = make_requests(1);

    const std::uint64_t seed = 7777;
    ExecutionContext ctx(*plan, seed);
    const Tensor via_packed = ctx.infer(xs[0]);

    // Oracle engines over the same macros; noise keyed exactly like
    // ExecutionContext wires it (one key set shared by both engines,
    // which hash their macro kind in).
    const oracle::Engine oracle_rom(plan->rom_macro(), mode);
    const oracle::Engine oracle_sram(plan->sram_macro(), mode);
    NoiseKeys keys;
    for (int i = 0; i < xs[0].shape()[0]; ++i) {
      keys.images.push_back(image_noise_key(seed, i));
    }
    MacroRunStats rom_stats, sram_stats;
    MvmScratch scratch;
    MvmBinding binding;
    binding.slot(EngineKind::kRom) = {&oracle_rom,
                                      {&keys, &rom_stats, &scratch}};
    binding.slot(EngineKind::kSram) = {&oracle_sram,
                                       {&keys, &sram_stats, &scratch}};
    Tensor via_oracle;
    {
      MvmBinding::Scope scope(binding);
      via_oracle = plan->model().forward(xs[0], /*train=*/false);
    }

    EXPECT_TRUE(bit_identical(via_packed, via_oracle));
    expect_stats_identical(ctx.rom_stats(), rom_stats);
    expect_stats_identical(ctx.sram_stats(), sram_stats);
  }
}

TEST(Runtime, ServerMatchesSerialAtMicrobatchOne) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const int kRequests = 6;
  const auto xs = make_requests(kRequests);
  const std::uint64_t kSeed = 777;

  // Serial reference mirroring the scheduler's per-request seeding rule.
  std::vector<Tensor> serial_out(kRequests);
  MacroRunStats serial_rom, serial_sram;
  for (int i = 0; i < kRequests; ++i) {
    ExecutionContext ctx(*plan, kSeed + static_cast<std::uint64_t>(i));
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
    serial_rom.accumulate(ctx.rom_stats());
    serial_sram.accumulate(ctx.sram_stats());
  }

  SchedulerOptions options;
  options.workers = 3;
  options.max_microbatch = 1;
  options.noise_seed = kSeed;
  Scheduler scheduler(*plan, options);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(scheduler.submit(xs[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < kRequests; ++i) {
    Tensor out = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)], out))
        << "request " << i;
  }
  scheduler.wait_idle();
  expect_stats_identical(serial_rom, scheduler.rom_stats());
  expect_stats_identical(serial_sram, scheduler.sram_stats());

  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  EXPECT_EQ(metrics.served_requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.served_images, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.batches, static_cast<std::uint64_t>(kRequests));
}

TEST(Runtime, ServerMicrobatchingPreservesExactOutputs) {
  // Exact-cost mode is noise-free, so fusing requests into micro-batches
  // must not change any output bit.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  const int kImages = 8;
  Rng rng(91);
  Tensor images = Tensor::rand_uniform({kImages, 3, 8, 8}, rng, 0.0f, 1.0f);

  ExecutionContext ctx(*plan, 1);
  Tensor reference = ctx.infer(images);

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 4;
  Scheduler scheduler(*plan, options);
  Tensor served = scheduler.infer(images);
  EXPECT_TRUE(bit_identical(reference, served));

  scheduler.wait_idle();
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  EXPECT_EQ(metrics.served_images, static_cast<std::uint64_t>(kImages));
  EXPECT_LE(metrics.batches, metrics.served_requests);
  // Cost totals match the single-pass reference up to summation order.
  EXPECT_EQ(ctx.rom_stats().macs, scheduler.rom_stats().macs);
  EXPECT_EQ(ctx.sram_stats().macs, scheduler.sram_stats().macs);
  EXPECT_NEAR(ctx.total_energy_pj(), scheduler.total_energy_pj(),
              1e-9 * ctx.total_energy_pj());

  // Analog noise is keyed per request, so at the same micro-batch cap
  // row i is bit-identical to a serial context seeded noise_seed + i.
  // The single worker is held on its first batch until every row is
  // queued, so the rest are fused into micro-batches of 4.
  const auto analog = make_plan(MacroMvmEngine::Mode::kAnalog);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> held{false};
  options.workers = 1;
  options.noise_seed = 4242;
  options.worker_fault_hook = [&](int) {
    if (!held.exchange(true)) released.wait();
  };
  Scheduler analog_scheduler(*analog, options);
  auto pending = std::async(std::launch::async, [&] {
    return analog_scheduler.infer(images);
  });
  const auto batch_lane = static_cast<std::size_t>(Priority::kBatch);
  for (int i = 0; i < 5000 && (!held.load() ||
                               analog_scheduler.metrics_snapshot()
                                       .classes[batch_lane]
                                       .submitted < kImages);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  const Tensor analog_served = pending.get();
  analog_scheduler.wait_idle();
  EXPECT_EQ(analog_scheduler.metrics_snapshot().max_batch_occupancy, 4)
      << "rows must have been fused";
  for (int i = 0; i < kImages; ++i) {
    ExecutionContext row_ctx(
        *analog, options.noise_seed + static_cast<std::uint64_t>(i));
    EXPECT_TRUE(bit_identical(row_ctx.infer(slice_rows(images, i, 1)),
                              slice_rows(analog_served, i, 1)))
        << "analog row " << i;
  }
}

TEST(Runtime, ServerRejectsMalformedRequests) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  Scheduler scheduler(*plan, {});
  Rng rng(3);
  Tensor bad = Tensor::rand_uniform({4, 4}, rng, 0.0f, 1.0f);
  EXPECT_THROW((void)scheduler.submit(bad), std::runtime_error);

  // A request that passes admission but fails in the model (wrong channel
  // count) must surface through the future and count only as a failure —
  // served-image metrics and energy totals stay clean.
  Tensor wrong_channels = Tensor::rand_uniform({1, 5, 8, 8}, rng, 0.0f, 1.0f);
  auto future = scheduler.submit(wrong_channels);
  EXPECT_THROW((void)future.get(), std::runtime_error);
  scheduler.wait_idle();
  const MetricsSnapshot metrics = scheduler.metrics_snapshot();
  std::uint64_t failed = 0;
  for (const ClassSnapshot& c : metrics.classes) {
    failed += c.failed_requests + c.expired_requests + c.rejected_requests;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(metrics.served_requests, 0u);
  EXPECT_EQ(metrics.served_images, 0u);
  EXPECT_EQ(scheduler.total_energy_pj(), 0.0);
}

TEST(Runtime, SurvivingBatchNormIsEvalSafe) {
  // A BN that is not conv-adjacent survives fold_batchnorm and stays in
  // the deployed graph; its eval forward must not write layer state, so
  // concurrent contexts over the shared plan remain bit-identical.
  Rng rng(77);
  auto net = std::make_unique<Sequential>("net");
  net->add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, true, rng, "c1"));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<BatchNorm2d>(4, 1e-5f, 0.1f, "bn"));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4, 3, true, rng, "fc"));
  Tensor calib = Tensor::rand_uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = MacroMvmEngine::Mode::kExactCost;
  DeploymentPlan plan(std::move(net), calib, std::move(options));

  const auto xs = make_requests(4);
  std::vector<Tensor> serial_out(4), parallel_out(4);
  for (int i = 0; i < 4; ++i) {
    ExecutionContext ctx(plan, 5);
    serial_out[static_cast<std::size_t>(i)] =
        ctx.infer(xs[static_cast<std::size_t>(i)]);
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      ExecutionContext ctx(plan, 5);
      parallel_out[static_cast<std::size_t>(i)] =
          ctx.infer(xs[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bit_identical(serial_out[static_cast<std::size_t>(i)],
                              parallel_out[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
}

TEST(Runtime, DeployWithoutContextThrows) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  const auto xs = make_requests(1);
  // Kind-tagged quant layers have no direct engine binding: executing the
  // lowered model outside an ExecutionContext must fail loudly.
  EXPECT_THROW((void)plan->model().forward(xs[0], false),
               std::runtime_error);
}

TEST(ScratchKernels, MatmulIntoMatchesReference) {
  Rng rng(17);
  for (const auto& [m, k, n] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {3, 5, 2}, {33, 130, 257}, {64, 40, 12}}) {
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor expected({m, n});
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a.at2(i, kk)) * b.at2(kk, j);
        }
        expected.at2(i, j) = static_cast<float>(acc);
      }
    }
    // Stale, wrong-shaped scratch must be handled.
    Tensor out = Tensor::full({2, 2}, 123.0f);
    matmul_into(a, b, out);
    EXPECT_LT(max_abs_diff(expected, out), 2e-3f) << m << "x" << k << "x" << n;
    // Reuse with the right shape (stale payload) must also be exact.
    out.fill(-7.0f);
    matmul_into(a, b, out);
    EXPECT_LT(max_abs_diff(expected, out), 2e-3f);
  }
}

TEST(ScratchKernels, Im2colIntoReusesStorage) {
  Rng rng(19);
  Tensor x = Tensor::rand_uniform({2, 3, 6, 6}, rng, -1.0f, 1.0f);
  Tensor expected = im2col(x, 3, 3, 1, 1);
  Tensor cols = Tensor::full({4, 4}, 55.0f);  // wrong shape, stale payload
  im2col_into(x, 3, 3, 1, 1, cols);
  EXPECT_TRUE(bit_identical(expected, cols));
  const float* before = cols.data();
  im2col_into(x, 3, 3, 1, 1, cols);  // right shape: no reallocation
  EXPECT_EQ(before, cols.data());
  EXPECT_TRUE(bit_identical(expected, cols));
}

}  // namespace
}  // namespace yoloc
