// Macro-level tests: functional MVM fidelity of the packed kernels
// against exact integer math (per tile, and through the exact-cost
// engine over multi-tile GEMMs), cost accounting, the Table I
// specification summary, and the statistical gate pinning the tabulated
// read noise to the circuit model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/macro_engine.hpp"
#include "macro/macro_spec.hpp"

namespace yoloc {
namespace {

MacroConfig quiet_rom() {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  return cfg;
}

std::vector<std::int32_t> exact_mvm(const std::vector<std::int8_t>& w, int m,
                                    int k,
                                    const std::vector<std::uint8_t>& x) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(acc);
  }
  return y;
}

/// One analog MVM of an (m x k) matrix that fits one tile (k <= rows),
/// through the packed kernel.
void tile_mvm(const CimMacro& macro, const std::vector<std::int8_t>& w,
              int m, int k, const std::vector<std::uint8_t>& x,
              std::vector<std::int32_t>& y, std::uint64_t noise_key,
              MacroRunStats& stats) {
  const PackedRomWeights packed(w.data(), m, k, macro.config().geometry);
  ASSERT_EQ(packed.tile_count(), 1);
  macro.mvm_packed(packed, 0, x.data(), y.data(), noise_key, stats);
}

TEST(CimMacro, NoiseFreeMvmIsNearExact) {
  const CimMacro macro(quiet_rom());
  Rng rng(1);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  tile_mvm(macro, w, m, k, x, y, rng(), stats);
  const auto ref = exact_mvm(w, m, k, x);

  // rows_per_activation=32 with a 5-bit ADC leaves ~1 count of rounding
  // per read; relative error stays below ~2%.
  for (int j = 0; j < m; ++j) {
    const double denom = std::max(1000.0, std::fabs(double(ref[j])));
    EXPECT_LT(std::fabs(double(y[j]) - ref[j]) / denom, 0.02) << "output " << j;
  }
}

TEST(CimMacro, SmallValuesExactlyReconstructed) {
  // Counts within one ADC step: zero quantization error expected.
  MacroConfig cfg = quiet_rom();
  const CimMacro macro(cfg);
  Rng rng(2);
  const int k = 16;
  std::vector<std::int8_t> w(static_cast<std::size_t>(2) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-3, 3));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  std::vector<std::int32_t> y(2);
  MacroRunStats stats;
  tile_mvm(macro, w, 2, k, x, y, rng(), stats);
  const auto ref = exact_mvm(w, 2, k, x);
  EXPECT_EQ(y[0], ref[0]);
  EXPECT_EQ(y[1], ref[1]);
}

TEST(CimMacro, AggressiveGroupingDegradesAccuracy) {
  MacroConfig precise = quiet_rom();
  MacroConfig aggressive = quiet_rom();
  aggressive.geometry.rows_per_activation = 128;
  // Reduce per-cell discharge so 128 cells fit the bitline range.
  aggressive.bitline.i_cell_ua = 0.5;

  const CimMacro macro_p(precise);
  const CimMacro macro_a(aggressive);
  Rng rng(3);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  std::vector<std::int32_t> yp(static_cast<std::size_t>(m));
  std::vector<std::int32_t> ya(static_cast<std::size_t>(m));
  MacroRunStats sp;
  MacroRunStats sa;
  tile_mvm(macro_p, w, m, k, x, yp, rng(), sp);
  tile_mvm(macro_a, w, m, k, x, ya, rng(), sa);
  const auto ref = exact_mvm(w, m, k, x);

  double err_p = 0.0;
  double err_a = 0.0;
  for (int j = 0; j < m; ++j) {
    err_p += std::fabs(double(yp[j]) - ref[j]);
    err_a += std::fabs(double(ya[j]) - ref[j]);
  }
  EXPECT_LT(err_p, err_a);
  // Fewer groups -> fewer conversions (energy win of the trade-off).
  EXPECT_LT(sa.array.adc_conversions, sp.array.adc_conversions);
}

TEST(CimMacro, StatsCountConversions) {
  const CimMacro macro(quiet_rom());
  Rng rng(4);
  const int m = 2;
  const int k = 64;  // 2 groups of 32
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k, 1);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k), 1);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  tile_mvm(macro, w, m, k, x, y, rng(), stats);
  // conversions = m * weight_bits * input_bits * groups = 2*8*8*2.
  EXPECT_EQ(stats.array.adc_conversions, 256u);
  EXPECT_EQ(stats.macro_ops, 1u);
  EXPECT_EQ(stats.macs, static_cast<std::uint64_t>(m) * k);
  EXPECT_GT(stats.latency_ns, 0.0);
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, ExactCostPathMatchesIntegerMath) {
  const CimMacro macro(quiet_rom());
  Rng rng(5);
  const int m = 3;
  const int k = 100;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  const PackedRomWeights packed(w.data(), m, k, macro.config().geometry,
                                /*pack_planes=*/false);
  macro.mvm_packed_exact_cost(packed, 0, w.data(), x.data(), y.data(), stats);
  EXPECT_EQ(y, exact_mvm(w, m, k, x));
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, RejectsForeignPackedTiles) {
  // A packing built for another geometry, or a tile index outside it,
  // must throw rather than read past the tile.
  const CimMacro macro(quiet_rom());
  const int k = 200;  // two tiles of 128 rows
  std::vector<std::int8_t> w(k, 1);
  std::vector<std::uint8_t> x(k, 1);
  std::vector<std::int32_t> y(1);
  MacroRunStats stats;
  const PackedRomWeights packed(w.data(), 1, k, macro.config().geometry);
  ASSERT_EQ(packed.tile_count(), 2);
  EXPECT_NO_THROW(macro.mvm_packed(packed, 1, x.data(), y.data(), 1, stats));
  EXPECT_THROW(macro.mvm_packed(packed, 2, x.data(), y.data(), 1, stats),
               std::runtime_error);
  EXPECT_THROW(macro.mvm_packed_exact_cost(packed, -1, w.data(), x.data(),
                                           y.data(), stats),
               std::runtime_error);
  MacroGeometry other = macro.config().geometry;
  other.rows_per_activation = 16;
  const PackedRomWeights foreign(w.data(), 1, k, other);
  EXPECT_THROW(macro.mvm_packed(foreign, 0, x.data(), y.data(), 1, stats),
               std::runtime_error);
}

TEST(ExactCostEngine, MatchesIntegerGemm) {
  const auto run = [](const CimMacro& macro, const std::vector<std::int8_t>& w,
                      int m, int k, const std::vector<std::uint8_t>& x,
                      int p) {
    const MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kExactCost);
    std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
    MacroRunStats stats;
    MvmSession session{nullptr, &stats, nullptr};
    engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);
    EXPECT_EQ(stats.macs, static_cast<std::uint64_t>(m) * k * p);
    return y;
  };

  // Hand-computed: W (3 x 4) times X (4 x 2).
  {
    const CimMacro macro(default_rom_macro());
    const std::vector<std::int8_t> w = {1, -2, 3, -4, 5, 6, -7, 8, 0, 1, 2, 3};
    const std::vector<std::uint8_t> x = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto y = run(macro, w, 3, 4, x, 2);
    EXPECT_EQ(y[0], -18);  // row 0, col 0: 1*1 - 2*3 + 3*5 - 4*7
    EXPECT_EQ(y[1], -20);  // row 0, col 1: 1*2 - 2*4 + 3*6 - 4*8
    EXPECT_EQ(y[4], 34);   // row 2, col 0: 0*1 + 1*3 + 2*5 + 3*7
  }

  // Random GEMMs over one to three row tiles, on both macro kinds.
  Rng rng(10);
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    const CimMacro macro(cfg);
    const int rows = cfg.geometry.rows;
    for (int tiles = 1; tiles <= 3; ++tiles) {
      const int m = rng.uniform_int(1, 40);
      const int k = rng.uniform_int((tiles - 1) * rows + 1, tiles * rows);
      const int p = rng.uniform_int(2, 6);
      std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
      std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
      for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const auto y = run(macro, w, m, k, x, p);
      for (int col = 0; col < p; ++col) {
        std::vector<std::uint8_t> xc(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          xc[static_cast<std::size_t>(i)] =
              x[static_cast<std::size_t>(i) * p + col];
        }
        const auto ref = exact_mvm(w, m, k, xc);
        for (int j = 0; j < m; ++j) {
          ASSERT_EQ(y[static_cast<std::size_t>(j) * p + col],
                    ref[static_cast<std::size_t>(j)])
              << "rows " << rows << " m " << m << " k " << k << " p " << p
              << " row " << j << " col " << col;
        }
      }
    }
  }
}

TEST(CimMacro, RejectsOperandWidthsBeyondRowMaskPlanes) {
  // The bit-serial paths index fixed RowMask xbits[8] / wbits[8] arrays;
  // wider operands must be rejected at construction, not corrupt the
  // stack at run time. (MacroConfig::validate alone allows up to 16.)
  MacroConfig cfg = quiet_rom();
  cfg.geometry.input_bits = 9;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 9;
  cfg.geometry.cols = 9 * 32;  // keep cols divisible by weight_bits
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.input_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  // The boundary value stays accepted.
  cfg = quiet_rom();
  cfg.geometry.input_bits = 8;
  cfg.geometry.weight_bits = 8;
  EXPECT_NO_THROW(CimMacro{cfg});
}

TEST(MacroConfig, RomDensityMatchesTableI) {
  const MacroConfig rom = default_rom_macro();
  // Table I: ~1.2 Mb, ~0.24 mm^2, ~5 Mb/mm^2.
  EXPECT_NEAR(rom.geometry.capacity_bits() / 1e6, 1.18, 0.1);
  EXPECT_NEAR(rom.area_mm2(), 0.24, 0.05);
  EXPECT_NEAR(rom.density_mb_per_mm2(), 5.0, 1.0);
}

TEST(MacroConfig, SramMuchLessDense) {
  const MacroConfig rom = default_rom_macro();
  const MacroConfig sram = default_sram_macro();
  const double ratio = rom.density_mb_per_mm2() / sram.density_mb_per_mm2();
  // Paper: ~19x macro-level density advantage.
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 40.0);
  // Cell-level: 18.5x.
  EXPECT_NEAR(sram.area.cell_area_um2 / rom.area.cell_area_um2, 18.5, 0.1);
}

TEST(MacroConfig, AreaBreakdownSumsToOne) {
  for (const MacroConfig& cfg :
       {default_rom_macro(), default_sram_macro()}) {
    const auto b = cfg.area_breakdown();
    EXPECT_NEAR(b.array + b.adc + b.periphery + b.overhead, 1.0, 1e-9);
  }
}

TEST(MacroConfig, OnlySramWritable) {
  EXPECT_FALSE(default_rom_macro().writable());
  EXPECT_TRUE(default_sram_macro().writable());
  EXPECT_EQ(default_rom_macro().standby_power_uw, 0.0);
  EXPECT_GT(default_sram_macro().standby_power_uw, 0.0);
}

TEST(MacroSpec, TableIValues) {
  const CimMacro macro(default_rom_macro());
  Rng rng(7);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/16);
  EXPECT_NEAR(s.inference_time_ns, 8.9, 0.05);     // 8 x 1.1125 ns
  EXPECT_EQ(s.operation_number, 256);              // 2 x 128 rows
  EXPECT_NEAR(s.throughput_gops, 28.8, 0.3);
  EXPECT_NEAR(s.cell_area_um2, 0.014, 1e-6);
  EXPECT_NEAR(s.density_mb_per_mm2, 5.0, 1.0);
  // Measured efficiency should land in Table I's neighbourhood.
  EXPECT_GT(s.mac_eff_tops_per_w, 8.0);
  EXPECT_LT(s.mac_eff_tops_per_w, 16.0);
  EXPECT_GT(s.area_eff_gops_per_mm2, 80.0);
  EXPECT_LT(s.area_eff_gops_per_mm2, 160.0);
}

TEST(MacroSpec, TablePrintsAllRows) {
  const CimMacro macro(default_rom_macro());
  Rng rng(8);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/4);
  const TextTable t = macro_spec_table(s);
  EXPECT_EQ(t.row_count(), 12u);
  EXPECT_NE(t.to_string().find("TOPS/W"), std::string::npos);
}

TEST(MacroSpec, SramLessEfficientThanRom) {
  Rng rng(9);
  const CimMacro rom(default_rom_macro());
  const CimMacro sram(default_sram_macro());
  const auto srom = summarize_macro(rom, rng, 8);
  const auto ssram = summarize_macro(sram, rng, 8);
  EXPECT_GT(srom.mac_eff_tops_per_w, ssram.mac_eff_tops_per_w);
}

// ------------------------------------------------ statistical noise gate
//
// Both analog kernels sample each read's code from the macro's per-count
// table (macro/read_code_table.hpp). The gate pins that table to the
// continuous two-Gaussian chain of CimArrayModel::read_count: for every
// count, 10^6 draws from each must agree in mean, variance and
// P(code != ideal code) within 5 sigma, and the expected precharge
// energy charged per read must match read_count's Monte Carlo mean.

constexpr int kGateSamples = 1000000;
constexpr double kGateSigmas = 5.0;

/// Histogram of ADC codes.
struct CodeSample {
  std::vector<double> hist;
  double n = 0.0;

  explicit CodeSample(int levels) : hist(static_cast<std::size_t>(levels)) {}
  void add(int code) {
    hist[static_cast<std::size_t>(code)] += 1.0;
    n += 1.0;
  }
  [[nodiscard]] double mean() const {
    double m = 0.0;
    for (std::size_t k = 0; k < hist.size(); ++k) m += k * hist[k];
    return m / n;
  }
  /// Central moment of order `order`.
  [[nodiscard]] double central(int order) const {
    const double mu = mean();
    double m = 0.0;
    for (std::size_t k = 0; k < hist.size(); ++k) {
      m += std::pow(static_cast<double>(k) - mu, order) * hist[k];
    }
    return m / n;
  }
  [[nodiscard]] double off_fraction(int ideal) const {
    return 1.0 - hist[static_cast<std::size_t>(ideal)] / n;
  }
};

CodeSample table_codes(const CimMacro& macro, int count) {
  CodeSample s(macro.array_model().adc().code_count());
  for (int i = 0; i < kGateSamples; ++i) {
    const std::uint64_t u =
        hash64((static_cast<std::uint64_t>(count) << 32) | i);
    s.add(macro.read_table().code(count, u));
  }
  return s;
}

/// read_count reference draws; also reports the mean precharge charge
/// per read and its standard error.
CodeSample reference_codes(const CimArrayModel& array, int count, Rng& rng,
                           double& precharge_mean, double& precharge_se) {
  CodeSample s(array.adc().code_count());
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < kGateSamples; ++i) {
    ArrayReadStats stats;
    const double est = array.read_count(count, array.group_size(), rng, stats);
    s.add(static_cast<int>(std::lround(est / array.counts_per_code())));
    sum += stats.precharge_energy_pj;
    sum2 += stats.precharge_energy_pj * stats.precharge_energy_pj;
  }
  precharge_mean = sum / kGateSamples;
  precharge_se = std::sqrt(
      std::max(0.0, sum2 / kGateSamples - precharge_mean * precharge_mean) /
      kGateSamples);
  return s;
}

/// Statistics (of mean, variance, P(code != ideal)) on which the two
/// samples disagree by more than kGateSigmas standard errors.
int gate_failures(const CodeSample& a, const CodeSample& b, int ideal) {
  constexpr double kSlack = 1e-12;  // zero-variance samples
  int failures = 0;
  const double va = a.central(2);
  const double vb = b.central(2);
  if (std::fabs(a.mean() - b.mean()) >
      kGateSigmas * std::sqrt(va / a.n + vb / b.n) + kSlack) {
    ++failures;
  }
  const double se_va = (a.central(4) - va * va) / a.n;
  const double se_vb = (b.central(4) - vb * vb) / b.n;
  if (std::fabs(va - vb) >
      kGateSigmas * std::sqrt(std::max(0.0, se_va + se_vb)) + kSlack) {
    ++failures;
  }
  const double pa = a.off_fraction(ideal);
  const double pb = b.off_fraction(ideal);
  const double pooled = (pa * a.n + pb * b.n) / (a.n + b.n);
  const double se_p =
      std::sqrt(pooled * (1.0 - pooled) * (1.0 / a.n + 1.0 / b.n));
  if (std::fabs(pa - pb) > kGateSigmas * se_p + kSlack) {
    ++failures;
  }
  return failures;
}

int ideal_code(const CimArrayModel& array, int count) {
  return array.adc().quantize_ideal(array.bitline().voltage_for_count(count));
}

TEST(NoiseGate, TableMatchesReadCountAtRomAndSramDefaults) {
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    SCOPED_TRACE(cfg.kind == MacroKind::kRom ? "rom" : "sram");
    const CimMacro macro(cfg);
    MacroConfig doubled_cfg = cfg;
    doubled_cfg.bitline.sigma_cell *= 2.0;
    const CimMacro doubled(doubled_cfg);
    const CimArrayModel& array = macro.array_model();
    Rng rng(cfg.kind == MacroKind::kRom ? 101 : 202);
    int doubled_failures = 0;
    for (int c = 0; c <= array.group_size(); ++c) {
      double precharge_mean = 0.0;
      double precharge_se = 0.0;
      const CodeSample ref =
          reference_codes(array, c, rng, precharge_mean, precharge_se);
      const int ideal = ideal_code(array, c);
      EXPECT_EQ(gate_failures(table_codes(macro, c), ref, ideal), 0)
          << "count " << c;
      EXPECT_LE(std::fabs(macro.expected_precharge_pj(c) - precharge_mean),
                kGateSigmas * precharge_se + 1e-12 * precharge_mean)
          << "count " << c;
      doubled_failures += gate_failures(table_codes(doubled, c), ref, ideal);
    }
    EXPECT_GT(doubled_failures, 0)
        << "the gate must catch a deliberately doubled sigma_cell";
  }
}

TEST(NoiseGate, ClampedTailsMatchReadCount) {
  // Large mismatch on few cells puts real mass on the count clamp at 0,
  // exercising the table's numerically integrated branch.
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.5;
  cfg.adc.noise_sigma_v = 0.05;
  const CimMacro macro(cfg);
  const CimArrayModel& array = macro.array_model();
  Rng rng(303);
  for (const int c : {1, 2, 5, 32}) {
    double precharge_mean = 0.0;
    double precharge_se = 0.0;
    const CodeSample ref =
        reference_codes(array, c, rng, precharge_mean, precharge_se);
    EXPECT_EQ(gate_failures(table_codes(macro, c), ref, ideal_code(array, c)),
              0)
        << "count " << c;
  }
}

TEST(NoiseGate, TableRowsAreDistributions) {
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    const CimMacro macro(cfg);
    const ReadCodeTable& table = macro.read_table();
    EXPECT_GT(table.width(), 0);
    for (int c = 0; c <= table.max_count(); ++c) {
      double total = 0.0;
      for (int k = 0; k < macro.array_model().adc().code_count(); ++k) {
        total += table.probability(c, k);
      }
      EXPECT_NEAR(total, 1.0, 1e-15) << "count " << c;
    }
  }
  // Noise-free: every count reads its ideal code.
  MacroConfig quiet = quiet_rom();
  const CimMacro macro(quiet);
  EXPECT_EQ(macro.read_table().width(), 0);
  for (int c = 0; c <= macro.read_table().max_count(); ++c) {
    EXPECT_EQ(macro.read_table().code(c, ~0ull),
              ideal_code(macro.array_model(), c));
  }
}

}  // namespace
}  // namespace yoloc
