// Tracing & replay (src/serve/trace.*, workload_trace.*): sampling
// determinism, collector overflow semantics, the observer-only
// contract (outputs AND stat sums bit-identical at any sampling rate),
// span structure (per-request and per-batch spans present, e2e
// envelopes queue-wait + execute, per-layer MVM spans appear), chrome
// JSON structure, the .yoloctrace round trip with corruption coverage,
// and deterministic workload replay (admission order and per-class
// outcome counts reproduce exactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "runtime/deployment_plan.hpp"
#include "runtime/execution_context.hpp"
#include "serve/scheduler.hpp"
#include "serve/trace.hpp"
#include "serve/workload_trace.hpp"
#include "tensor/ops.hpp"

namespace yoloc {
namespace {

// Keep the concurrency paths exercised even on single-core CI boxes.
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
  for (Parameter* p : net->parameters()) {
    p->rom_resident = p->name.find("b.c") != std::string::npos;
  }
  return net;
}

std::unique_ptr<DeploymentPlan> make_plan(MacroMvmEngine::Mode mode) {
  LayerPtr net = make_model(21);
  Rng data_rng(33);
  Tensor calib = Tensor::rand_uniform({8, 3, 8, 8}, data_rng, 0.0f, 1.0f);
  DeploymentOptions options;
  options.mode = mode;
  return std::make_unique<DeploymentPlan>(std::move(net), calib,
                                          std::move(options));
}

Tensor make_input(std::uint64_t seed, std::vector<int> shape) {
  Rng rng(seed);
  return Tensor::rand_uniform(shape, rng, 0.0f, 1.0f);
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

// ----------------------------------------------------- TraceCollector

TEST(TraceCollector, SamplingIsDeterministicAndMonotoneInRate) {
  const TraceCollector none(2, 0.0);
  const TraceCollector half_a(2, 0.5);
  const TraceCollector half_b(4, 0.5);  // worker count must not matter
  const TraceCollector most(2, 0.9);
  const TraceCollector all(2, 1.0);

  EXPECT_FALSE(none.enabled());
  EXPECT_TRUE(half_a.enabled());

  int sampled = 0;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    EXPECT_FALSE(none.sampled(id));
    EXPECT_TRUE(all.sampled(id));
    EXPECT_EQ(half_a.sampled(id), half_b.sampled(id));
    // The decision is a threshold on one hash value, so a request
    // sampled at a low rate is sampled at every higher rate too.
    if (half_a.sampled(id)) {
      ++sampled;
      EXPECT_TRUE(most.sampled(id));
    }
  }
  // Loose two-sided bound: ~half of 2000 ids at rate 0.5.
  EXPECT_GT(sampled, 800);
  EXPECT_LT(sampled, 1200);
}

TEST(TraceCollector, FullBufferDropsAndCountsInsteadOfWrapping) {
  TraceCollector collector(1, 1.0, /*capacity_per_worker=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.name = kSpanExecute;
    ev.request_id = static_cast<std::uint64_t>(i);
    ev.start_ns = static_cast<std::uint64_t>(i);
    collector.emit(0, ev);
  }
  const auto events = collector.drain_events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].request_id,
              static_cast<std::uint64_t>(i));  // earliest survive
  }
  EXPECT_EQ(collector.dropped_events(), 6u);
  // The drop count is surfaced in the export.
  EXPECT_NE(collector.to_chrome_json().find("\"yolocDroppedEvents\":6"),
            std::string::npos);
}

TEST(TraceCollector, DisabledCollectorIsInert) {
  TraceCollector collector(2, 0.0);
  TraceEvent ev;
  ev.name = kSpanE2e;
  collector.emit(0, ev);  // must be a no-op, not a crash or an alloc
  EXPECT_TRUE(collector.drain_events().empty());
  EXPECT_EQ(collector.dropped_events(), 0u);
}

// ---------------------------------------------- observer-only contract

TEST(Tracing, SamplingDoesNotPerturbOutputsOrStatSums) {
  auto plan = make_plan(MacroMvmEngine::Mode::kAnalog);
  const std::uint64_t kSeed = 2024;
  constexpr int kRequests = 10;

  const auto run = [&](double sampling) {
    SchedulerOptions options;
    options.workers = 3;
    options.max_microbatch = 1;  // determinism contract configuration
    options.noise_seed = kSeed;
    options.trace_sampling = sampling;
    Scheduler scheduler(*plan, options);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          scheduler.submit(make_input(100 + static_cast<std::uint64_t>(i),
                                      {1, 3, 8, 8})));
    }
    std::vector<Tensor> outputs;
    for (auto& f : futures) outputs.push_back(f.get());
    scheduler.wait_idle();
    return std::make_tuple(std::move(outputs), scheduler.rom_stats(),
                           scheduler.sram_stats());
  };

  auto [untraced, rom_off, sram_off] = run(0.0);
  auto [traced, rom_on, sram_on] = run(1.0);

  ASSERT_EQ(untraced.size(), traced.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_TRUE(bit_identical(untraced[i], traced[i])) << "request " << i;
  }
  // Stat sums too: tracing must not touch noise keys or merge order.
  EXPECT_EQ(rom_off.macs, rom_on.macs);
  EXPECT_EQ(sram_off.macs, sram_on.macs);
  EXPECT_EQ(rom_off.macro_ops, rom_on.macro_ops);
  EXPECT_EQ(rom_off.energy_pj(), rom_on.energy_pj());
  EXPECT_EQ(sram_off.energy_pj(), sram_on.energy_pj());
  EXPECT_EQ(rom_off.latency_ns, rom_on.latency_ns);
}

// ------------------------------------------------------ span structure

TEST(Tracing, SpansCoverEveryStageAndNest) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 1;  // one worker: spans cannot interleave across tids
  options.max_microbatch = 1;
  options.trace_sampling = 1.0;
  Scheduler scheduler(*plan, options);
  constexpr int kRequests = 4;
  {
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          scheduler.submit(make_input(static_cast<std::uint64_t>(i) + 1,
                                      {1, 3, 8, 8})));
    }
    for (auto& f : futures) (void)f.get();
  }
  scheduler.wait_idle();

  const auto events = scheduler.trace().drain_events();
  std::map<std::string, int> by_name;
  for (const TraceEvent& ev : events) by_name[ev.name] += 1;

  // Per-request spans: one each. Per-batch spans: max_microbatch = 1
  // means one batch per request.
  EXPECT_EQ(by_name[kSpanQueueWait], kRequests);
  EXPECT_EQ(by_name[kSpanE2e], kRequests);
  EXPECT_EQ(by_name[kSpanBatchFormation], kRequests);
  EXPECT_EQ(by_name[kSpanExecute], kRequests);
  EXPECT_EQ(by_name[kSpanEpilogue], kRequests);
  // Layer spans: the plan lowers 2 convs + 1 linear, so each batch
  // emits 3 mvm spans and 2 im2col spans.
  EXPECT_EQ(by_name[kSpanMvm], kRequests * 3);
  EXPECT_EQ(by_name[kSpanIm2col], kRequests * 2);

  for (std::uint64_t id = 0; id < kRequests; ++id) {
    const TraceEvent* queue_wait = nullptr;
    const TraceEvent* e2e = nullptr;
    const TraceEvent* execute = nullptr;
    std::uint64_t batch_id = kTraceNoId;
    for (const TraceEvent& ev : events) {
      if (ev.request_id != id) continue;
      if (std::strcmp(ev.name, kSpanQueueWait) == 0) {
        queue_wait = &ev;
        batch_id = ev.batch_id;
      } else if (std::strcmp(ev.name, kSpanE2e) == 0) {
        e2e = &ev;
      } else if (std::strcmp(ev.name, kSpanExecute) == 0) {
        execute = &ev;
        EXPECT_EQ(ev.requests, 1);
        EXPECT_EQ(ev.images, 1);
      }
    }
    ASSERT_NE(queue_wait, nullptr) << "request " << id;
    ASSERT_NE(e2e, nullptr) << "request " << id;
    ASSERT_NE(execute, nullptr) << "request " << id;
    EXPECT_NE(batch_id, kTraceNoId);
    // Nesting: the e2e envelope starts with the queue wait and covers
    // queue-wait + execute (pickup <= exec start, done >= exec end).
    EXPECT_EQ(e2e->start_ns, queue_wait->start_ns);
    EXPECT_GE(e2e->dur_ns, queue_wait->dur_ns + execute->dur_ns);
    // Execution happens inside the envelope.
    EXPECT_GE(execute->start_ns, queue_wait->start_ns + queue_wait->dur_ns);
    EXPECT_LE(execute->start_ns + execute->dur_ns,
              e2e->start_ns + e2e->dur_ns);
  }

  // Layer spans carry plan-owned layer names and an engine tag.
  bool saw_rom = false;
  for (const TraceEvent& ev : events) {
    if (std::strcmp(ev.name, kSpanMvm) != 0) continue;
    ASSERT_NE(ev.layer, nullptr);
    ASSERT_NE(ev.engine, nullptr);
    if (std::strcmp(ev.engine, "rom") == 0) saw_rom = true;
  }
  EXPECT_TRUE(saw_rom);  // backbone convs are ROM-resident
}

TEST(Tracing, PartialSamplingTracesExactlyTheSampledRequests) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.trace_sampling = 0.5;
  Scheduler scheduler(*plan, options);
  constexpr int kRequests = 24;
  {
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          scheduler.submit(make_input(static_cast<std::uint64_t>(i) + 1,
                                      {1, 3, 8, 8})));
    }
    for (auto& f : futures) (void)f.get();
  }
  scheduler.wait_idle();

  const auto events = scheduler.trace().drain_events();
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    int e2e_count = 0;
    for (const TraceEvent& ev : events) {
      if (ev.request_id == id && std::strcmp(ev.name, kSpanE2e) == 0) {
        ++e2e_count;
      }
    }
    EXPECT_EQ(e2e_count, scheduler.trace().sampled(id) ? 1 : 0)
        << "request " << id;
  }
}

// --------------------------------------------------------- chrome JSON

TEST(Tracing, ChromeJsonIsStructurallySound) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 2;
  options.trace_sampling = 1.0;
  Scheduler scheduler(*plan, options);
  {
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(
          scheduler.submit(make_input(static_cast<std::uint64_t>(i) + 1,
                                      {1, 3, 8, 8})));
    }
    for (auto& f : futures) (void)f.get();
  }
  scheduler.wait_idle();

  const std::string json = scheduler.trace_json();
  // Shape: one object, the trace-event envelope, metadata, and at least
  // one complete event per span family that must have fired.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mvm\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"batch_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"yolocDroppedEvents\":0"), std::string::npos);
  // Braces and brackets balance (no truncated emission). String values
  // never contain braces here, so a flat count is a valid check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------- workload trace serde

WorkloadTrace sample_trace() {
  WorkloadTrace trace;
  trace.workers = 3;
  trace.max_microbatch = 4;
  for (int i = 0; i < 5; ++i) {
    AdmissionRecord r;
    r.offset_ns = static_cast<std::uint64_t>(i) * 1000;
    r.priority = static_cast<Priority>(i % kPriorityClassCount);
    r.deadline_ns = i % 2 == 0 ? 0 : 5000000ull;
    r.shape = {1 + i % 2, 3, 8, 8};
    trace.records.push_back(r);
    trace.submitted[static_cast<std::size_t>(r.priority)] += 1;
    trace.served[static_cast<std::size_t>(r.priority)] += 1;
  }
  return trace;
}

TEST(WorkloadTraceSerde, RoundTripsExactly) {
  const WorkloadTrace trace = sample_trace();
  const std::vector<std::uint8_t> bytes = trace.serialize();
  const WorkloadTrace back =
      WorkloadTrace::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(back.workers, trace.workers);
  EXPECT_EQ(back.max_microbatch, trace.max_microbatch);
  EXPECT_EQ(back.submitted, trace.submitted);
  EXPECT_EQ(back.served, trace.served);
  EXPECT_EQ(back.expired, trace.expired);
  EXPECT_EQ(back.rejected, trace.rejected);
  ASSERT_EQ(back.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(back.records[i].offset_ns, trace.records[i].offset_ns);
    EXPECT_EQ(back.records[i].priority, trace.records[i].priority);
    EXPECT_EQ(back.records[i].deadline_ns, trace.records[i].deadline_ns);
    EXPECT_EQ(back.records[i].shape, trace.records[i].shape);
  }
}

TEST(WorkloadTraceSerde, RejectsCorruptArtifacts) {
  const std::vector<std::uint8_t> bytes = sample_trace().serialize();

  // Truncation at every prefix length must throw, never crash.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{15},
                          bytes.size() - 1}) {
    EXPECT_THROW((void)WorkloadTrace::deserialize(bytes.data(), cut),
                 std::exception)
        << "prefix " << cut;
  }
  // Bad magic.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)WorkloadTrace::deserialize(bad.data(), bad.size()),
               std::exception);
  // Payload corruption must fail the CRC.
  bad = bytes;
  bad.back() ^= 0x01;
  EXPECT_THROW((void)WorkloadTrace::deserialize(bad.data(), bad.size()),
               std::exception);
  // Trailing garbage after the payload.
  bad = bytes;
  bad.push_back(0);
  EXPECT_THROW((void)WorkloadTrace::deserialize(bad.data(), bad.size()),
               std::exception);
}

// -------------------------------------------------------------- replay

TEST(Replay, ReproducesAdmissionOrderAndOutcomeCounts) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  options.record_admissions = true;
  constexpr int kRequests = 12;

  WorkloadTrace trace;
  {
    Scheduler scheduler(*plan, options);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
      // Two geometries, uniform class, no deadlines: every submission
      // is served, so outcome counts must reproduce exactly.
      futures.push_back(scheduler.submit(
          make_input(static_cast<std::uint64_t>(i) + 1,
                     {i % 3 == 0 ? 2 : 1, 3, 8, 8})));
    }
    for (auto& f : futures) (void)f.get();
    scheduler.wait_idle();
    trace = scheduler.recorded_trace();
  }

  ASSERT_EQ(trace.records.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(trace.workers, 2);
  EXPECT_EQ(trace.served[static_cast<std::size_t>(Priority::kBatch)],
            static_cast<std::uint64_t>(kRequests));
  // Offsets are non-decreasing from the first submission.
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_GE(trace.records[i].offset_ns, trace.records[i - 1].offset_ns);
  }
  EXPECT_EQ(trace.records[0].offset_ns, 0u);
  EXPECT_EQ(trace.records[0].shape, (std::array<std::int32_t, 4>{2, 3, 8, 8}));

  // File round trip on the recorded trace, then replay it re-recording.
  const std::vector<std::uint8_t> bytes = trace.serialize();
  const WorkloadTrace loaded =
      WorkloadTrace::deserialize(bytes.data(), bytes.size());

  ReplayOptions replay;
  replay.pace = false;  // as fast as possible; order must still hold
  replay.record = true;
  const ReplayResult result = replay_trace(loaded, *plan, options, replay);

  EXPECT_TRUE(result.counts_match);
  EXPECT_EQ(result.served, trace.served);
  EXPECT_EQ(result.expired, trace.expired);
  EXPECT_EQ(result.rejected, trace.rejected);
  EXPECT_EQ(result.snapshot.served_requests,
            static_cast<std::uint64_t>(kRequests));

  // Admission order reproduction: the re-recorded stream has the same
  // class and geometry sequence as the original (single-threaded
  // submission in record order pins admission ids).
  ASSERT_EQ(result.replayed.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(result.replayed.records[i].priority, trace.records[i].priority)
        << "record " << i;
    EXPECT_EQ(result.replayed.records[i].shape, trace.records[i].shape)
        << "record " << i;
    EXPECT_EQ(result.replayed.records[i].deadline_ns,
              trace.records[i].deadline_ns)
        << "record " << i;
  }
}

TEST(WorkloadTraceSerde, EmptyTraceRoundTripsExactly) {
  // A recording session that admitted nothing still produces a valid
  // artifact; it must survive the byte round trip with all-zero
  // counters, not get rejected as malformed.
  WorkloadTrace trace;
  trace.workers = 3;
  trace.max_microbatch = 2;
  const std::vector<std::uint8_t> bytes = trace.serialize();
  const WorkloadTrace back =
      WorkloadTrace::deserialize(bytes.data(), bytes.size());
  EXPECT_TRUE(back.records.empty());
  EXPECT_EQ(back.workers, 3);
  EXPECT_EQ(back.max_microbatch, 2);
  EXPECT_EQ(back.submitted, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(back.served, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(back.expired, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(back.rejected, (std::array<std::uint64_t, 3>{}));
}

TEST(Replay, EmptyTraceChecksCleanWithoutSideEffects) {
  // Regression: replaying a zero-admission trace used to construct a
  // scheduler and compare its fresh snapshot against the recorded
  // counters; now it short-circuits. counts_match must be a definite
  // true (yoloc_replay --check exits 0), never a comparison against
  // whatever a just-built snapshot happens to hold.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  WorkloadTrace trace;
  trace.workers = 2;
  trace.max_microbatch = 1;

  SchedulerOptions options;
  options.workers = 2;
  ReplayOptions replay;
  replay.record = true;
  const ReplayResult result = replay_trace(trace, *plan, options, replay);
  EXPECT_TRUE(result.counts_match);
  EXPECT_EQ(result.served, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(result.expired, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(result.rejected, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(result.snapshot.served_requests, 0u);
  EXPECT_TRUE(result.replayed.records.empty());
}

TEST(Replay, EmptyTraceWithNonzeroCountersFailsTheCheck) {
  // The inverse guard: recorded outcomes with no records backing them
  // can never be reproduced, so --check must fail, not vacuously pass.
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  WorkloadTrace trace;
  trace.served[static_cast<std::size_t>(Priority::kBatch)] = 1;

  const ReplayResult result =
      replay_trace(trace, *plan, SchedulerOptions{}, ReplayOptions{});
  EXPECT_FALSE(result.counts_match);
}

TEST(Replay, PacedReplayPreservesInterArrivalGaps) {
  auto plan = make_plan(MacroMvmEngine::Mode::kExactCost);
  WorkloadTrace trace;
  trace.workers = 2;
  trace.max_microbatch = 1;
  for (int i = 0; i < 3; ++i) {
    AdmissionRecord r;
    r.offset_ns = static_cast<std::uint64_t>(i) * 20'000'000;  // 20 ms apart
    r.shape = {1, 3, 8, 8};
    trace.records.push_back(r);
    trace.submitted[static_cast<std::size_t>(r.priority)] += 1;
    trace.served[static_cast<std::size_t>(r.priority)] += 1;
  }

  SchedulerOptions options;
  options.workers = 2;
  options.max_microbatch = 1;
  ReplayOptions replay;  // paced, speed 1.0
  const ReplayResult result = replay_trace(trace, *plan, options, replay);
  EXPECT_TRUE(result.counts_match);
  // The last arrival is 40 ms in: a paced replay cannot finish sooner.
  EXPECT_GE(result.seconds, 0.040);
}

}  // namespace
}  // namespace yoloc
