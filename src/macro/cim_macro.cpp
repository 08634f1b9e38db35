#include "macro/cim_macro.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

// Every ON-cell count is a popcount. Portable x86-64 builds lower
// std::popcount to a libgcc call; a POPCNT clone of the packed kernel,
// picked at load time on CPUs that have the instruction, makes each one
// instruction (same results, about twice the kernel throughput).
// ThreadSanitizer builds go without: the loader runs the clone resolver
// before the TSAN runtime is up, which crashes at startup.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__POPCNT__) && \
    !defined(__SANITIZE_THREAD__)
#define YOLOC_POPCNT_CLONES \
  __attribute__((target_clones("popcnt", "default")))
#else
#define YOLOC_POPCNT_CLONES
#endif

namespace yoloc {

void MacroRunStats::accumulate(const MacroRunStats& other) {
  array.accumulate(other.array);
  macro_ops += other.macro_ops;
  macs += other.macs;
  latency_ns += other.latency_ns;
}

CimMacro::CimMacro(MacroConfig config, AnalogKernel kernel)
    : config_(std::move(config)),
      kernel_(kernel),
      array_(config_.bitline, config_.adc, config_.energy,
             config_.geometry.rows_per_activation),
      table_(array_) {
  YOLOC_CHECK(config_.geometry.rows <= 128,
              "cim macro: row masks support up to 128 rows");
  // The bit-serial paths index fixed RowMask xbits[8] / wbits[8] arrays;
  // wider operands would silently corrupt the stack, so reject them here
  // rather than relying on the (laxer) MacroConfig::validate bound.
  YOLOC_CHECK(config_.geometry.input_bits >= 1 &&
                  config_.geometry.input_bits <= 8,
              "cim macro: input_bits out of [1, 8]");
  YOLOC_CHECK(config_.geometry.weight_bits >= 1 &&
                  config_.geometry.weight_bits <= 8,
              "cim macro: weight_bits out of [1, 8]");
  YOLOC_CHECK(config_.geometry.rows % config_.geometry.rows_per_activation ==
                  0,
              "cim macro: rows must divide evenly into activation groups");
  // Both kernels index the table by ON-cell count, and a count is at
  // most one group's rows. The vector kernel's gathers are not
  // bounds-checked by AddressSanitizer, so the bound is pinned here.
  YOLOC_CHECK(table_.max_count() == config_.geometry.rows_per_activation,
              "cim macro: read table does not cover one activation group");
  YOLOC_CHECK(kernel_ == AnalogKernel::kScalar ||
                  best_analog_kernel() == AnalogKernel::kAvx512,
              "cim macro: the AVX-512 kernel is not available on this "
              "host or build");

  if (config_.faults.any()) {
    faults_ = std::make_shared<FaultModel>(
        config_.faults, static_cast<std::uint64_t>(config_.kind),
        config_.geometry.rows);
  }
  const CimArrayModel::ReadChainConsts rc = array_.read_chain_consts();
  counts_per_code_ = rc.counts_per_code;
  adc_energy_pj_ = rc.adc_energy_pj;
  // Precharge charge is linear in the effective count (a full group
  // stays above the bitline floor, see CimArrayModel) and the count's
  // noise is zero-mean, so a read's expected charge is that of its exact
  // count; the clamps move it by less than 1e-20 at the ROM and SRAM
  // defaults.
  precharge_pj_per_cell_ = array_.bitline().precharge_energy_pj(1.0);
}

void CimMacro::charge_reads(std::uint64_t reads, std::uint64_t cells,
                            MacroRunStats& stats) const {
  stats.array.adc_conversions += reads;
  stats.array.adc_energy_pj += static_cast<double>(reads) * adc_energy_pj_;
  stats.array.precharge_energy_pj +=
      static_cast<double>(cells) * precharge_pj_per_cell_;
}

double CimMacro::single_pass_latency_ns() const {
  return config_.geometry.input_bits * config_.geometry.clock_ns;
}

void CimMacro::charge_op_costs(int m, int k, std::uint64_t pulses,
                               MacroRunStats& stats) const {
  const auto& g = config_.geometry;
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;

  array_.charge_wl_pulses(pulses, stats.array);

  // Shift-add: one digital accumulation per ADC conversion result.
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  array_.charge_shift_adds(conversions, stats.array);

  // Latency: conversions are served by the per-subarray ADC bank.
  const double slots =
      std::ceil(static_cast<double>(conversions) / g.adc_per_subarray);
  stats.latency_ns += slots * config_.adc.t_conv_ns;
  stats.macro_ops += 1;
  stats.macs += static_cast<std::uint64_t>(m) * k;
}

void CimMacro::check_packed_tile(const PackedRomWeights& packed,
                                 int tile_index) const {
  const auto& g = config_.geometry;
  YOLOC_CHECK(packed.rows() == g.rows &&
                  packed.weight_bits() == g.weight_bits &&
                  packed.input_bits() == g.input_bits &&
                  packed.rows_per_activation() == g.rows_per_activation,
              "cim macro: packed weights built for a different geometry");
  YOLOC_CHECK(tile_index >= 0 && tile_index < packed.tile_count(),
              "cim macro: packed tile index out of range");
}

void CimMacro::mvm_packed(const PackedRomWeights& packed, int tile_index,
                          const std::uint8_t* x, std::int32_t* y,
                          std::uint64_t noise_key,
                          MacroRunStats& stats) const {
  check_packed_tile(packed, tile_index);
  YOLOC_CHECK(packed.has_planes(),
              "cim macro: analog packed path needs weight bit-planes "
              "(packing was built boundaries-only for exact-cost)");
  const PackedRomWeights::Tile& tile = packed.tile(tile_index);

  // Fault overlay in tile-local coordinates (see macro/fault_model.hpp):
  // nullptr in the common fault-off case, so the hot loop pays one
  // pointer test per call. Only the scalar kernel applies it.
  const FaultModel* faults =
      faults_ != nullptr && faults_->active() ? faults_.get() : nullptr;
  const KernelCounts counts =
      faults == nullptr && kernel_ == AnalogKernel::kAvx512
          ? mvm_packed_avx512(packed, tile, x, y, noise_key)
          : mvm_packed_scalar(packed, tile, x, y, noise_key, faults);

  const std::uint64_t reads = static_cast<std::uint64_t>(packed.m()) *
                              packed.weight_bits() * packed.input_bits() *
                              tile.groups;
  charge_reads(reads, counts.cells, stats);
  charge_op_costs(packed.m(), tile.k_size, counts.pulses, stats);
}

YOLOC_POPCNT_CLONES
CimMacro::KernelCounts CimMacro::mvm_packed_scalar(
    const PackedRomWeights& packed, const PackedRomWeights::Tile& tile,
    const std::uint8_t* x, std::int32_t* y, std::uint64_t noise_key,
    const FaultModel* faults) const {
  const int m = packed.m();
  const int k = tile.k_size;
  const int groups = tile.groups;
  const int weight_bits = packed.weight_bits();
  const int input_bits = packed.input_bits();

  // Activation bit-planes: ONE scan of x builds both the planes and the
  // wordline pulse count.
  RowMask xbits[8];
  for (int i = 0; i < k; ++i) {
    const unsigned v = x[i];
    const int lane = i >> 6;
    const int shift = i & 63;
    for (int t = 0; t < input_bits; ++t) {
      xbits[t].lane[lane] |= static_cast<std::uint64_t>((v >> t) & 1u)
                             << shift;
    }
  }
  KernelCounts counts;
  for (int t = 0; t < input_bits; ++t) {
    counts.pulses += static_cast<std::uint64_t>(xbits[t].count());
  }

  const double* bcw = packed.bit_cycle_weight();
  const RowMask* gmasks = tile.group_masks.data();
  const bool transients = faults != nullptr && faults->has_transients();

  std::uint64_t read = 0;
  for (int j = 0; j < m; ++j) {
    const RowMask* wrow =
        tile.wbits.data() + static_cast<std::size_t>(j) * weight_bits;
    double acc = 0.0;
    for (int b = 0; b < weight_bits; ++b) {
      RowMask wb = wrow[b];
      AdcDrift drift;
      if (faults != nullptr) {
        const FaultModel::PlaneFaults pf = faults->plane(j, b);
        wb.or_with(pf.force_one);
        wb.and_not(pf.force_zero);
        drift = faults->adc_drift(j, b);
      }
      for (int t = 0; t < input_bits; ++t) {
        RowMask wbt = wb;
        if (transients) wbt.xor_with(faults->transient_flips(j, b, t));
        const RowMask xt = xbits[t];
        const double cycle_weight =
            bcw[static_cast<std::size_t>(b) * input_bits + t];
        for (int grp = 0; grp < groups; ++grp) {
          const int exact = wbt.count_and3(xt, gmasks[grp]);
          counts.cells += static_cast<std::uint64_t>(exact);
          double est = read_estimate(exact, noise_key, read++);
          if (faults != nullptr) {
            est = est * drift.gain + drift.offset_counts;
          }
          acc += est * cycle_weight;
        }
      }
    }
    y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  return counts;
}

void CimMacro::mvm_packed_exact_cost(const PackedRomWeights& packed,
                                     int tile_index, const std::int8_t* w,
                                     const std::uint8_t* x, std::int32_t* y,
                                     MacroRunStats& stats) const {
  check_packed_tile(packed, tile_index);
  const auto& g = config_.geometry;
  const PackedRomWeights::Tile& tile = packed.tile(tile_index);
  const int m = packed.m();
  const int k = tile.k_size;
  const int full_k = packed.k();

  // The exact product stays a plain integer MAC over the raw weight rows
  // in place (the compiler vectorizes it far better than a bit-plane
  // reconstruction); the wordline pulses are a byte-popcount over the
  // input_bits window.
  for (int j = 0; j < m; ++j) {
    const std::int8_t* wrow =
        w + static_cast<std::size_t>(j) * full_k + tile.k0;
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(wrow[i]) * x[i];
    }
    y[j] = static_cast<std::int32_t>(acc);
  }

  // Wordline pulses = set bits of x inside the input_bits window. A
  // byte-replicated window mask turns this into 8-bytes-per-popcount:
  // sum_i popcount(x[i] & win) == sum_words popcount(word & win*0x0101..).
  const std::uint64_t pulse_window =
      ((1ull << g.input_bits) - 1ull) * 0x0101010101010101ull;
  std::uint64_t pulses = 0;
  int i = 0;
  for (; i + 8 <= k; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, x + i, sizeof(word));
    pulses += static_cast<unsigned>(std::popcount(word & pulse_window));
  }
  for (; i < k; ++i) {
    pulses += static_cast<unsigned>(
        std::popcount(x[i] & static_cast<unsigned>(pulse_window & 0xFFu)));
  }

  const int groups = tile.groups;
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  stats.array.adc_conversions += conversions;
  stats.array.adc_energy_pj +=
      static_cast<double>(conversions) * config_.adc.energy_pj;
  stats.array.precharge_energy_pj +=
      static_cast<double>(conversions) *
      array_.bitline().precharge_energy_pj(0.25 * g.rows_per_activation);
  charge_op_costs(m, k, pulses, stats);
}

}  // namespace yoloc
