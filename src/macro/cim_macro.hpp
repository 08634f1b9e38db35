#pragma once
// Functional + cost model of one CiM macro executing integer MVMs.
//
// Computing discipline (paper Fig. 5):
//   * A weight matrix chunk W (m outputs x k rows, int8) is bit-sliced:
//     weight bit b of output j lives in column j*8+b of the subarray.
//   * The activation vector x (k entries, uint8) is applied bit-serially:
//     input cycle t pulses the wordlines of rows whose activation bit t
//     is 1.
//   * Rows are activated `rows_per_activation` at a time; each active
//     group, input cycle and weight-bit column produces one ADC read of
//     the ON-cell count (cells where weight bit AND input bit are 1).
//   * The digital backend reconstructs y = W x via shift-and-add with
//     two's-complement weighting (bit 7 contributes with factor -128).
//
// The same engine drives both macro kinds; the MacroConfig supplies the
// analog parameters (ROM: low mismatch; SRAM: higher mismatch, heavier
// wordlines) and the cost constants.
//
// Two functional paths exist per mode:
//   * mvm / mvm_exact_cost: the legacy per-call path that derives weight
//     bit-planes from the raw int8 buffer on every call.
//   * mvm_packed / mvm_packed_exact_cost: the deploy-time fast path over
//     a PackedRomWeights tile, without re-deriving what ROM weights
//     cannot change. Bit-identical to the legacy path: same outputs and
//     same stats.
//
// mvm_packed runs one of two kernels (AnalogKernel), picked per macro at
// construction:
//   * kScalar: one output row at a time. It serves hosts without
//     AVX-512, ThreadSanitizer builds (which do not compile the vector
//     kernel) and every call with an active FaultModel.
//   * kAvx512: eight output rows per vector, one per 64-bit lane. Each
//     lane counts, hashes, looks up and accumulates its own reads in the
//     scalar order, so outputs and stats are bit-identical to kScalar.
//     The kernel is compiled with a target attribute, so portable builds
//     carry it; best_analog_kernel() picks it once, at run time, when
//     the CPU has AVX-512 F/BW/DQ/VL.
//
// Analog noise is counter-keyed, not streamed. Each ADC read draws one
// uniform, hash64(noise_key + read), where `read` is the read's index
// ((j * weight_bits + b) * input_bits + t) * groups + grp within the
// call, and maps it through the per-count code table (ReadCodeTable),
// which holds the read chain's exact code distribution. The draw depends
// only on the read's coordinates, so a kernel may visit reads in any
// order. Precharge energy is charged at its expected value for the
// exact count, so modeled energy does not depend on the noise.

#include <cstdint>
#include <memory>
#include <vector>

#include "macro/fault_model.hpp"
#include "macro/macro_config.hpp"
#include "macro/packed_weights.hpp"
#include "macro/read_code_table.hpp"

namespace yoloc {

/// Activity + energy + latency of one or more macro operations.
struct MacroRunStats {
  ArrayReadStats array;
  std::uint64_t macro_ops = 0;   // MVM tiles executed
  std::uint64_t macs = 0;        // exact integer MACs represented
  double latency_ns = 0.0;       // serialized conversion slots
  [[nodiscard]] double energy_pj() const { return array.total_energy_pj(); }
  void accumulate(const MacroRunStats& other);
};

/// Kernels behind CimMacro::mvm_packed (see the header comment).
enum class AnalogKernel { kScalar, kAvx512 };

/// The fastest analog kernel this host and build run. Decided once.
[[nodiscard]] AnalogKernel best_analog_kernel();

class CimMacro {
 public:
  /// `kernel` = kAvx512 on a host where best_analog_kernel() is kScalar
  /// throws.
  explicit CimMacro(MacroConfig config,
                    AnalogKernel kernel = best_analog_kernel());

  /// Analog-modeled MVM: y (int32, m entries) ~= W (m x k, int8) * x
  /// (k entries, uint8). k must fit the subarray rows. Accumulates
  /// activity into stats. Noise/quantization follow the circuit model;
  /// `noise_key` keys this call's reads (see the header comment).
  void mvm(const std::int8_t* w, int m, int k, const std::uint8_t* x,
           std::int32_t* y, std::uint64_t noise_key,
           MacroRunStats& stats) const;

  /// Bit-exact variant that still pays the modeled energy/latency —
  /// used to isolate cost modeling from accuracy modeling.
  void mvm_exact_cost(const std::int8_t* w, int m, int k,
                      const std::uint8_t* x, std::int32_t* y,
                      MacroRunStats& stats) const;

  /// Analog fast path over one packed tile: bit-identical to mvm() on
  /// the same tile with the same `noise_key` (same y, same stats). `x`
  /// holds the tile's k_size activation entries; `y` receives m partial
  /// sums. `packed` must have been built against this macro's geometry.
  void mvm_packed(const PackedRomWeights& packed, int tile_index,
                  const std::uint8_t* x, std::int32_t* y,
                  std::uint64_t noise_key, MacroRunStats& stats) const;

  /// Exact-cost fast path over one packed tile: bit-identical to
  /// mvm_exact_cost() on the same tile. `w` is the FULL (m x k) weight
  /// matrix the packing was built from (the integer MAC reads the raw
  /// rows in place — no per-call chunk copy); `packed` supplies the tile
  /// boundaries and cost geometry. No noise is drawn.
  void mvm_packed_exact_cost(const PackedRomWeights& packed, int tile_index,
                             const std::int8_t* w, const std::uint8_t* x,
                             std::int32_t* y, MacroRunStats& stats) const;

  [[nodiscard]] const MacroConfig& config() const { return config_; }
  [[nodiscard]] const CimArrayModel& array_model() const { return array_; }

  /// The per-count ADC code distribution both analog paths sample.
  [[nodiscard]] const ReadCodeTable& read_table() const { return table_; }
  /// Precharge energy charged per read of `count` ON cells: the expected
  /// value of the noisy chain's charge [pJ].
  [[nodiscard]] double expected_precharge_pj(int count) const {
    return count * precharge_pj_per_cell_;
  }

  /// The macro's fault model, or nullptr when config().faults.any() is
  /// false (the common case — no model is constructed at all). The
  /// pointer is stable for the macro's lifetime; copies of the macro
  /// share one model, so toggling set_active() reaches every copy.
  [[nodiscard]] FaultModel* fault_model() const { return faults_.get(); }

  /// Latency of a single full bit-serial pass (Table I "inference time"):
  /// input_bits serial cycles at the macro clock.
  [[nodiscard]] double single_pass_latency_ns() const;

 private:
  /// Shared bookkeeping for both mvm variants (scans x for pulses).
  void charge_op_costs(int m, int k, const std::uint8_t* x,
                       MacroRunStats& stats) const;
  /// Same bookkeeping with the wordline pulse count already known (the
  /// packed path derives it from the activation bit-plane popcounts
  /// instead of a second scan of x).
  void charge_op_costs(int m, int k, std::uint64_t pulses,
                       MacroRunStats& stats) const;

  void check_packed_tile(const PackedRomWeights& packed,
                         int tile_index) const;

  /// What a packed kernel hands back for the cost model: exact ON cells
  /// over all reads, and wordline pulses of the activation bit-planes.
  struct KernelCounts {
    std::uint64_t cells = 0;
    std::uint64_t pulses = 0;
  };
  KernelCounts mvm_packed_scalar(const PackedRomWeights& packed,
                                 const PackedRomWeights::Tile& tile,
                                 const std::uint8_t* x, std::int32_t* y,
                                 std::uint64_t noise_key,
                                 const FaultModel* faults) const;
  KernelCounts mvm_packed_avx512(const PackedRomWeights& packed,
                                 const PackedRomWeights::Tile& tile,
                                 const std::uint8_t* x, std::int32_t* y,
                                 std::uint64_t noise_key) const;

  /// Conversion + expected precharge energy of `reads` analog reads that
  /// saw `cells` exact ON cells in total.
  void charge_reads(std::uint64_t reads, std::uint64_t cells,
                    MacroRunStats& stats) const;

  /// Count estimate of read number `read` of the call keyed `noise_key`.
  [[nodiscard]] double read_estimate(int count, std::uint64_t noise_key,
                                     std::uint64_t read) const {
    return table_.code(count, hash64(noise_key + read)) * counts_per_code_;
  }

  MacroConfig config_;
  AnalogKernel kernel_;
  CimArrayModel array_;
  ReadCodeTable table_;
  /// Constructed only when config_.faults.any(); shared so macro copies
  /// see one active flag. Both mvm paths hoist ONE null/active check per
  /// call — the fault-off instruction stream is otherwise unchanged.
  std::shared_ptr<FaultModel> faults_;

  double counts_per_code_ = 0.0;
  double adc_energy_pj_ = 0.0;
  double precharge_pj_per_cell_ = 0.0;
};

}  // namespace yoloc
