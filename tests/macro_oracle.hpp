#pragma once
// Test-only oracle of the CiM macro MVM: the per-call kernel, which
// derives every weight bit-plane from the raw int8 buffer on each call,
// applies the fault overlay to it, counts each activation group with a
// range-clamped popcount and charges the modeled costs by scanning x.
// The packed kernels (CimMacro::mvm_packed / mvm_packed_exact_cost, any
// AnalogKernel) and MacroMvmEngine must reproduce it bit for bit: same
// outputs, same MacroRunStats under the same noise keys. The oracle reads
// the macro only through its public CimMacro / CimArrayModel accessors.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/macro_engine.hpp"

namespace yoloc::oracle {

/// Popcount of (a & b) over bit range [lo, hi).
inline int count_and(const RowMask& a, const RowMask& b, int lo, int hi) {
  int total = 0;
  for (int l = 0; l < 2; ++l) {
    const int base = l * 64;
    const int from = std::max(lo - base, 0);
    const int to = std::min(hi - base, 64);
    if (from >= to) continue;
    std::uint64_t bits = a.lane[l] & b.lane[l];
    if (from > 0) bits &= ~0ull << from;
    if (to < 64) bits &= (1ull << to) - 1;
    total += std::popcount(bits);
  }
  return total;
}

/// Wordline pulses, shift-adds, latency and op/MAC counts of one m x k
/// tile with activations x.
inline void charge_op_costs(const CimMacro& macro, int m, int k,
                            const std::uint8_t* x, MacroRunStats& stats) {
  const MacroGeometry& g = macro.config().geometry;
  // One pulse per active row per input cycle with its bit set, shared by
  // every column of the subarray.
  std::uint64_t pulses = 0;
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) {
      if ((x[i] >> t) & 1u) ++pulses;
    }
  }
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  macro.array_model().charge_wl_pulses(pulses, stats.array);
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  macro.array_model().charge_shift_adds(conversions, stats.array);
  const double slots =
      std::ceil(static_cast<double>(conversions) / g.adc_per_subarray);
  stats.latency_ns += slots * macro.config().adc.t_conv_ns;
  stats.macro_ops += 1;
  stats.macs += static_cast<std::uint64_t>(m) * k;
}

/// Analog MVM of one tile: y (m entries) ~= W (m x k, row-major int8,
/// k <= rows) * x (k entries). Each read draws
/// hash64(noise_key + read), read = ((j * wb + b) * ib + t) * groups + grp.
inline void mvm(const CimMacro& macro, const std::int8_t* w, int m, int k,
                const std::uint8_t* x, std::int32_t* y,
                std::uint64_t noise_key, MacroRunStats& stats) {
  const MacroGeometry& g = macro.config().geometry;
  YOLOC_CHECK(k >= 1 && k <= g.rows, "oracle: k exceeds subarray rows");
  YOLOC_CHECK(m >= 1, "oracle: m >= 1");
  const CimArrayModel::ReadChainConsts rc =
      macro.array_model().read_chain_consts();

  RowMask xbits[8];
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) {
      if ((x[i] >> t) & 1u) xbits[t].set(i);
    }
  }
  const FaultModel* fm = macro.fault_model();
  const FaultModel* faults = fm != nullptr && fm->active() ? fm : nullptr;
  const bool transients = faults != nullptr && faults->has_transients();

  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  std::uint64_t read = 0;
  std::uint64_t cells = 0;
  for (int j = 0; j < m; ++j) {
    // ROM columns store the raw two's-complement bit pattern.
    RowMask wbits[8];
    for (int i = 0; i < k; ++i) {
      const auto wv =
          static_cast<std::uint8_t>(w[static_cast<std::size_t>(j) * k + i]);
      for (int b = 0; b < g.weight_bits; ++b) {
        if ((wv >> b) & 1u) wbits[b].set(i);
      }
    }
    if (faults != nullptr) {
      for (int b = 0; b < g.weight_bits; ++b) {
        const FaultModel::PlaneFaults pf = faults->plane(j, b);
        wbits[b].or_with(pf.force_one);
        wbits[b].and_not(pf.force_zero);
      }
    }
    double acc = 0.0;
    for (int b = 0; b < g.weight_bits; ++b) {
      const double bit_weight = b == g.weight_bits - 1
                                    ? -static_cast<double>(1 << b)
                                    : static_cast<double>(1 << b);
      AdcDrift drift;
      if (faults != nullptr) drift = faults->adc_drift(j, b);
      for (int t = 0; t < g.input_bits; ++t) {
        RowMask wb = wbits[b];
        if (transients) wb.xor_with(faults->transient_flips(j, b, t));
        for (int grp = 0; grp < groups; ++grp) {
          const int lo = grp * g.rows_per_activation;
          const int hi = std::min(k, lo + g.rows_per_activation);
          const int exact = count_and(wb, xbits[t], lo, hi);
          cells += static_cast<std::uint64_t>(exact);
          double est = macro.read_table().code(exact,
                                               hash64(noise_key + read++)) *
                       rc.counts_per_code;
          if (faults != nullptr) {
            est = est * drift.gain + drift.offset_counts;
          }
          acc += est * bit_weight * static_cast<double>(1 << t);
        }
      }
    }
    y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  stats.array.adc_conversions += read;
  stats.array.adc_energy_pj += static_cast<double>(read) * rc.adc_energy_pj;
  stats.array.precharge_energy_pj +=
      static_cast<double>(cells) *
      macro.array_model().bitline().precharge_energy_pj(1.0);
  charge_op_costs(macro, m, k, x, stats);
}

/// Exact integer MVM of one tile that pays the modeled cost at the
/// average activity level (a quarter of each group discharging).
inline void mvm_exact_cost(const CimMacro& macro, const std::int8_t* w, int m,
                           int k, const std::uint8_t* x, std::int32_t* y,
                           MacroRunStats& stats) {
  const MacroGeometry& g = macro.config().geometry;
  YOLOC_CHECK(k >= 1 && k <= g.rows, "oracle: k exceeds subarray rows");
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[i];
    }
    y[j] = static_cast<std::int32_t>(acc);
  }
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  stats.array.adc_conversions += conversions;
  stats.array.adc_energy_pj +=
      static_cast<double>(conversions) * macro.config().adc.energy_pj;
  stats.array.precharge_energy_pj +=
      static_cast<double>(conversions) *
      macro.array_model().bitline().precharge_energy_pj(
          0.25 * g.rows_per_activation);
  charge_op_costs(macro, m, k, x, stats);
}

/// MacroMvmEngine's contract over the oracle kernels: tiles k over the
/// subarray rows (copying each row tile of W), keys every (tile, column)
/// call with mvm_noise_key exactly like the engine, and sums the tiles'
/// partial outputs.
class Engine final : public MvmEngine {
 public:
  Engine(const CimMacro& macro, MacroMvmEngine::Mode mode)
      : macro_(&macro), mode_(mode) {}

  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override {
    const bool analog = mode_ == MacroMvmEngine::Mode::kAnalog;
    const int rows = macro_->config().geometry.rows;
    std::uint64_t layer = 0;
    int pixels = p;
    if (analog) {
      layer = session.noise->calls++;
      pixels = p / static_cast<int>(session.noise->images.size());
    }
    std::fill(y, y + static_cast<std::size_t>(m) * p, 0);
    std::vector<std::int8_t> w_chunk;
    std::vector<std::uint8_t> x_chunk(static_cast<std::size_t>(rows));
    std::vector<std::int32_t> y_partial(static_cast<std::size_t>(m));
    for (int k0 = 0, tile = 0; k0 < k; k0 += rows, ++tile) {
      const int k_size = std::min(rows, k - k0);
      w_chunk.resize(static_cast<std::size_t>(m) * k_size);
      for (int j = 0; j < m; ++j) {
        const std::int8_t* src = w + static_cast<std::size_t>(j) * k + k0;
        std::copy(src, src + k_size,
                  w_chunk.begin() + static_cast<std::size_t>(j) * k_size);
      }
      for (int col = 0; col < p; ++col) {
        for (int i = 0; i < k_size; ++i) {
          x_chunk[static_cast<std::size_t>(i)] =
              x[static_cast<std::size_t>(k0 + i) * p + col];
        }
        if (analog) {
          const std::uint64_t key = mvm_noise_key(
              session.noise->images[static_cast<std::size_t>(col / pixels)],
              macro_->config().kind, layer, tile, col % pixels);
          mvm(*macro_, w_chunk.data(), m, k_size, x_chunk.data(),
              y_partial.data(), key, *session.stats);
        } else {
          mvm_exact_cost(*macro_, w_chunk.data(), m, k_size, x_chunk.data(),
                         y_partial.data(), *session.stats);
        }
        for (int j = 0; j < m; ++j) {
          y[static_cast<std::size_t>(j) * p + col] +=
              y_partial[static_cast<std::size_t>(j)];
        }
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "oracle"; }

 private:
  const CimMacro* macro_;
  MacroMvmEngine::Mode mode_;
};

}  // namespace yoloc::oracle
