#pragma once
// Deterministic per-macro fault injection (real CiM silicon suffers
// stuck-at cells, ADC drift and transient bit flips; the RRAM
// error-correction and PCM variation-handling lines of work treat fault
// tolerance as a first-class system layer — see PAPERS.md).
//
// Three fault classes, all derived by counter-based hashing (SplitMix64)
// from (seed, macro kind, fault stream, coordinates) — no mutable draw
// state, so the model is shared read-only by every worker thread and the
// SAME pattern afflicts every call, every replay:
//   * stuck-at-0 / stuck-at-1 — a bit-plane cell reads as a constant
//     regardless of the stored weight bit. Keyed (j, b, i).
//   * transient flips — a cell's readout inverts on specific input
//     cycles (residual SRAM bit-flip model). Keyed (j, b, t, i): a fixed
//     per-(column, cycle) pattern, deterministic across replays.
//   * ADC drift — a column's converter transfer gains a per-(j, b)
//     offset/gain error, applied to the count estimate after the
//     canonical read chain (circuit/cim_array.hpp AdcDrift).
//
// Coordinates are LOCAL tile coordinates: the engine time-multiplexes
// reduction tiles onto one physical subarray, so every tile sees the
// same faulty cells at its local (j, b, i). The per-call test oracle
// (tests/macro_oracle.hpp), which derives each tile's bit-planes itself,
// applies the same overlay and is checked bit-identical to the packed
// kernel under faults (tests/test_fault.cpp). Stuck/flip bits at rows
// >= the tile's k are harmless: every count ANDs with activation bits
// that are zero there.
//
// The only runtime state is an atomic `active` flag so chaos drills can
// inject and clear the fault mid-traffic; rates and seed are frozen at
// construction (and in the .yolocplan artifact).

#include <atomic>
#include <cstdint>

#include "circuit/cim_array.hpp"
#include "macro/packed_weights.hpp"

namespace yoloc {

class FaultModel {
 public:
  /// Stuck-at overlays for one (output column j, weight bit b) plane:
  /// effective = (stored | force_one) & ~force_zero. A cell drawn for
  /// both classes sticks at zero (the short dominates).
  struct PlaneFaults {
    RowMask force_one;
    RowMask force_zero;
  };

  /// `salt` distinguishes macros sharing a seed (the plan passes the
  /// macro kind); `rows` bounds the per-plane Bernoulli scan.
  FaultModel(const FaultModelConfig& config, std::uint64_t salt, int rows);

  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }
  /// Inject (true) or clear (false) the faults at runtime. The pattern
  /// itself never changes — only whether reads see it.
  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] const FaultModelConfig& config() const { return config_; }

  [[nodiscard]] PlaneFaults plane(int j, int b) const;

  [[nodiscard]] bool has_transients() const {
    return config_.transient_flip_rate > 0.0;
  }
  [[nodiscard]] RowMask transient_flips(int j, int b, int t) const;

  [[nodiscard]] AdcDrift adc_drift(int j, int b) const;

  /// Faulted cells across the first `m_cols` x `weight_bits` planes —
  /// reporting/tests (stuck-at only; transients are per-cycle).
  [[nodiscard]] std::uint64_t stuck_cell_count(int m_cols,
                                               int weight_bits) const;

 private:
  [[nodiscard]] RowMask bernoulli_mask(std::uint64_t stream, int j, int b,
                                       int t, double rate) const;

  FaultModelConfig config_;
  std::uint64_t salt_;
  int rows_;
  std::atomic<bool> active_;
};

}  // namespace yoloc
