// Packed-weights coverage: the deploy-time bit-plane packing
// (macro/packed_weights.*) and the packed CimMacro/MacroMvmEngine MVM
// must be BIT-IDENTICAL to the per-call oracle (macro_oracle.hpp) — same
// outputs, same energy/latency stats under the same noise keys — across
// analog (noisy and noise-free), exact-cost, odd reduction sizes,
// multi-tile shapes and both analog kernels. `ctest -L macro` selects
// this suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/macro_engine.hpp"
#include "macro_oracle.hpp"

namespace yoloc {
namespace {

MacroConfig noise_free_rom() {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  return cfg;
}

std::vector<std::int8_t> random_weights(int m, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return w;
}

std::vector<std::uint8_t> random_acts(int k, int p, std::uint64_t seed) {
  Rng rng(seed ^ 0x1234);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return x;
}

void expect_stats_identical(const MacroRunStats& a, const MacroRunStats& b) {
  EXPECT_EQ(a.array.adc_conversions, b.array.adc_conversions);
  EXPECT_EQ(a.array.wl_pulses, b.array.wl_pulses);
  EXPECT_EQ(a.array.shift_adds, b.array.shift_adds);
  // Energy/latency sums must match to the last bit (same values, same
  // accumulation order).
  EXPECT_EQ(a.array.adc_energy_pj, b.array.adc_energy_pj);
  EXPECT_EQ(a.array.precharge_energy_pj, b.array.precharge_energy_pj);
  EXPECT_EQ(a.array.wl_energy_pj, b.array.wl_energy_pj);
  EXPECT_EQ(a.array.shift_add_energy_pj, b.array.shift_add_energy_pj);
  EXPECT_EQ(a.macro_ops, b.macro_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
}

/// Drives the engine and the oracle engine with identically seeded
/// sessions and checks outputs + stats match exactly.
void expect_paths_identical(const MacroConfig& cfg,
                            MacroMvmEngine::Mode mode, int m, int k, int p,
                            std::uint64_t seed) {
  const CimMacro macro(cfg);
  const oracle::Engine reference(macro, mode);
  const MacroMvmEngine packed(macro, mode);
  const auto w = random_weights(m, k, seed);
  const auto x = random_acts(k, p, seed);

  std::vector<std::int32_t> y_oracle(static_cast<std::size_t>(m) * p);
  std::vector<std::int32_t> y_packed(static_cast<std::size_t>(m) * p);
  NoiseKeys keys_oracle;
  keys_oracle.images = {image_noise_key(seed, 0)};
  NoiseKeys keys_packed = keys_oracle;
  MacroRunStats stats_oracle, stats_packed;
  MvmScratch scratch_packed;
  MvmSession oracle_session{&keys_oracle, &stats_oracle, nullptr};
  MvmSession packed_session{&keys_packed, &stats_packed, &scratch_packed};

  // Two back-to-back calls so the second runs at the next layer ordinal
  // and from non-zero stats (the accumulation-order contract).
  for (int call = 0; call < 2; ++call) {
    reference.mvm_batch(w.data(), m, k, x.data(), p, y_oracle.data(),
                        oracle_session);
    packed.mvm_batch(w.data(), m, k, x.data(), p, y_packed.data(),
                     packed_session);
    EXPECT_EQ(y_oracle, y_packed) << "call " << call;
    expect_stats_identical(stats_oracle, stats_packed);
  }
}

TEST(PackedRomWeights, MasksMatchNaiveDerivation) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 3;
  const int k = 100;  // odd: not a multiple of rows_per_activation (32)
  const auto w = random_weights(m, k, 42);
  const PackedRomWeights packed(w.data(), m, k, g);

  ASSERT_EQ(packed.tile_count(), 1);
  const auto& tile = packed.tile(0);
  EXPECT_EQ(tile.k0, 0);
  EXPECT_EQ(tile.k_size, k);
  EXPECT_EQ(tile.groups, 4);  // ceil(100 / 32)

  // Group masks partition [0, k) along rows_per_activation boundaries.
  int covered = 0;
  for (int grp = 0; grp < tile.groups; ++grp) {
    covered += tile.group_masks[static_cast<std::size_t>(grp)].count();
  }
  EXPECT_EQ(covered, k);
  EXPECT_EQ(tile.group_masks[3].count(), 4);  // 100 - 3*32

  // Every weight bit is where the naive derivation puts it.
  for (int j = 0; j < m; ++j) {
    for (int b = 0; b < g.weight_bits; ++b) {
      const RowMask& plane =
          tile.wbits[static_cast<std::size_t>(j) * g.weight_bits + b];
      for (int i = 0; i < k; ++i) {
        const unsigned wv = static_cast<std::uint8_t>(
            w[static_cast<std::size_t>(j) * k + i]);
        const bool expected = ((wv >> b) & 1u) != 0;
        const bool actual =
            ((plane.lane[i >> 6] >> (i & 63)) & 1ull) != 0;
        EXPECT_EQ(actual, expected) << "j=" << j << " b=" << b << " i=" << i;
      }
    }
  }

  // Shift-add table: MSB plane carries the negative two's-complement
  // factor, scaled by 2^t per input cycle.
  const double* bcw = packed.bit_cycle_weight();
  EXPECT_EQ(bcw[0], 1.0);                                 // b=0, t=0
  EXPECT_EQ(bcw[1], 2.0);                                 // b=0, t=1
  EXPECT_EQ(bcw[7 * g.input_bits + 0], -128.0);           // b=7, t=0
  EXPECT_EQ(bcw[7 * g.input_bits + 7], -128.0 * 128.0);   // b=7, t=7
  EXPECT_GT(packed.packed_bytes(), 0u);
  EXPECT_GE(packed.pack_ms(), 0.0);
}

TEST(PackedRomWeights, TilesMirrorEngineRowTiling) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 2;
  const int k = 300;  // 128 + 128 + 44
  const auto w = random_weights(m, k, 43);
  const PackedRomWeights packed(w.data(), m, k, g);
  ASSERT_EQ(packed.tile_count(), 3);
  EXPECT_EQ(packed.tile(0).k_size, 128);
  EXPECT_EQ(packed.tile(1).k0, 128);
  EXPECT_EQ(packed.tile(2).k0, 256);
  EXPECT_EQ(packed.tile(2).k_size, 44);
  EXPECT_EQ(packed.tile(2).groups, 2);  // 32 + 12
}

TEST(PackedRomWeights, RejectsUnsupportedGeometry) {
  MacroGeometry g = default_rom_macro().geometry;
  const auto w = random_weights(1, 8, 44);
  g.weight_bits = 9;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  g = default_rom_macro().geometry;
  g.input_bits = 9;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  g = default_rom_macro().geometry;
  g.rows = 129;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
}

TEST(PackedRomWeights, BoundariesOnlyPackingForExactCost) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 4;
  const int k = 150;
  const auto w = random_weights(m, k, 46);
  const PackedRomWeights planes(w.data(), m, k, g, /*pack_planes=*/true);
  const PackedRomWeights bounds(w.data(), m, k, g, /*pack_planes=*/false);
  EXPECT_TRUE(planes.has_planes());
  EXPECT_FALSE(bounds.has_planes());
  ASSERT_EQ(bounds.tile_count(), planes.tile_count());
  for (int t = 0; t < bounds.tile_count(); ++t) {
    EXPECT_TRUE(bounds.tile(t).wbits.empty());
    EXPECT_EQ(bounds.tile(t).k0, planes.tile(t).k0);
    EXPECT_EQ(bounds.tile(t).groups, planes.tile(t).groups);
    EXPECT_FALSE(bounds.tile(t).group_masks.empty());
  }
  EXPECT_LT(bounds.packed_bytes(), planes.packed_bytes());

  // The analog path refuses a boundaries-only packing.
  const CimMacro macro(default_rom_macro());
  std::vector<std::uint8_t> x(128, 1);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  EXPECT_THROW(
      macro.mvm_packed(bounds, 0, x.data(), y.data(), /*noise_key=*/1, stats),
      std::runtime_error);
}

TEST(PackedWeightsCache, ReturnsSameInstanceAndChecksGeometry) {
  const MacroGeometry g = default_rom_macro().geometry;
  PackedWeightsCache cache;
  const auto w = random_weights(4, 64, 45);
  const PackedRomWeights& first = cache.get_or_pack(w.data(), 4, 64, g);
  const PackedRomWeights& second = cache.get_or_pack(w.data(), 4, 64, g);
  EXPECT_EQ(&first, &second);  // packed once, shared afterwards
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.packed_bytes(), first.packed_bytes());

  // A different shape is a different entry.
  (void)cache.get_or_pack(w.data(), 2, 64, g);
  EXPECT_EQ(cache.entries(), 2u);

  // One cache serves one geometry: a mismatched hit fails loudly.
  MacroGeometry other = g;
  other.rows_per_activation = 16;
  EXPECT_THROW(cache.get_or_pack(w.data(), 4, 64, other),
               std::runtime_error);
}

TEST(PackedMvm, AnalogBitIdenticalUnderDefaultNoise) {
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/101);
}

TEST(PackedMvm, AnalogBitIdenticalOnSramMacro) {
  expect_paths_identical(default_sram_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/16, /*k=*/128, /*p=*/3, /*seed=*/102);
}

TEST(PackedMvm, AnalogBitIdenticalOddReduction) {
  // k = 100: last activation group has only 4 rows.
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/100, /*p=*/4, /*seed=*/103);
}

TEST(PackedMvm, AnalogBitIdenticalMultiTile) {
  // k = 300 spans three subarray row tiles (128 + 128 + 44).
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/6, /*k=*/300, /*p=*/3, /*seed=*/104);
}

TEST(PackedMvm, AnalogBitIdenticalNoiseFree) {
  // sigma_cell = 0 and ADC noise = 0: every read takes the ideal code of
  // its count; outputs and stats must still match the oracle exactly.
  expect_paths_identical(noise_free_rom(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/105);
  expect_paths_identical(noise_free_rom(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/100, /*p=*/2, /*seed=*/106);
}

TEST(PackedMvm, AnalogBitIdenticalNarrowOperands) {
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.weight_bits = 4;
  cfg.geometry.input_bits = 4;
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/128, /*p=*/4, /*seed=*/107);
}

TEST(PackedMvm, ExactCostBitIdentical) {
  expect_paths_identical(default_rom_macro(),
                         MacroMvmEngine::Mode::kExactCost,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/108);
  expect_paths_identical(default_rom_macro(),
                         MacroMvmEngine::Mode::kExactCost,
                         /*m=*/6, /*k=*/300, /*p=*/3, /*seed=*/109);
}

TEST(PackedMvm, ExactCostBitIdenticalNarrowWeightBits) {
  // weight_bits = 4 with full-range int8 weights: the exact path must
  // still reconstruct the full int8 product, exactly like the oracle's
  // integer MAC.
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.weight_bits = 4;
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost,
                         /*m=*/8, /*k=*/128, /*p=*/4, /*seed=*/110);
}

/// Runs every tile of one packed (m x k) matrix through mvm_packed on
/// the scalar kernel and, where this host runs it, the AVX-512 kernel,
/// over `columns` activation vectors with one noise key each, and runs
/// the oracle on the same tile chunk and key. Outputs and accumulated
/// stats must match exactly after every call.
void expect_kernels_match_oracle(const MacroConfig& cfg, int m, int k,
                                 int columns, std::uint64_t seed,
                                 const std::string& what) {
  const auto w = random_weights(m, k, seed);
  const auto x = random_acts(k, columns, seed);
  const PackedRomWeights packed(w.data(), m, k, cfg.geometry);
  const CimMacro scalar(cfg, AnalogKernel::kScalar);
  const bool vector_kernel = best_analog_kernel() == AnalogKernel::kAvx512;
  const CimMacro vector(cfg, vector_kernel ? AnalogKernel::kAvx512
                                           : AnalogKernel::kScalar);
  MacroRunStats stats_oracle, stats_scalar, stats_vector;
  std::vector<std::int32_t> y_oracle(static_cast<std::size_t>(m));
  std::vector<std::int32_t> y_scalar(static_cast<std::size_t>(m));
  std::vector<std::int32_t> y_vector(static_cast<std::size_t>(m));
  Rng keys(seed ^ 0xC0FFEE);
  for (int tile = 0; tile < packed.tile_count(); ++tile) {
    const auto& t = packed.tile(tile);
    std::vector<std::int8_t> chunk(static_cast<std::size_t>(m) * t.k_size);
    for (int j = 0; j < m; ++j) {
      std::copy_n(w.begin() + static_cast<std::ptrdiff_t>(j) * k + t.k0,
                  t.k_size,
                  chunk.begin() + static_cast<std::ptrdiff_t>(j) * t.k_size);
    }
    for (int col = 0; col < columns; ++col) {
      const std::uint8_t* xt =
          x.data() + static_cast<std::size_t>(col) * k + t.k0;
      const std::uint64_t key = keys();
      oracle::mvm(scalar, chunk.data(), m, t.k_size, xt, y_oracle.data(), key,
                  stats_oracle);
      scalar.mvm_packed(packed, tile, xt, y_scalar.data(), key, stats_scalar);
      ASSERT_EQ(y_oracle, y_scalar)
          << what << " scalar vs oracle, tile " << tile << " column " << col;
      expect_stats_identical(stats_oracle, stats_scalar);
      if (!vector_kernel) continue;
      vector.mvm_packed(packed, tile, xt, y_vector.data(), key, stats_vector);
      ASSERT_EQ(y_scalar, y_vector)
          << what << " avx512 vs scalar, tile " << tile << " column " << col;
      expect_stats_identical(stats_scalar, stats_vector);
    }
  }
}

TEST(AnalogKernels, MatchTheOracleOverRandomGeometries) {
  const int rows_options[] = {32, 64, 128};
  // 4 is the one group size here not made of whole bytes: it takes the
  // vector kernel's bit-mask count. 64 and 128 are the ablation bench's
  // wide groups (counts past 16 take the vector kernel's gathers).
  const int group_options[] = {4, 8, 16, 32, 64, 128};
  const double sigma_options[] = {0.0, 0.02, 0.05, 0.1, 0.2};
  const int m_options[] = {1, 7, 8, 9, 17};
  Rng rng(2026);
  for (int trial = 0; trial < 120; ++trial) {
    // ROM default noise, SRAM default noise and a noise-free ROM, in turn.
    MacroConfig cfg = trial % 3 == 1 ? default_sram_macro()
                      : trial % 3 == 2 ? noise_free_rom()
                                       : default_rom_macro();
    MacroGeometry& g = cfg.geometry;
    g.input_bits = rng.uniform_int(1, 8);
    g.weight_bits = rng.uniform_int(1, 8);
    g.rows = rows_options[rng.uniform_int(0, 2)];
    do {
      g.rows_per_activation = group_options[rng.uniform_int(0, 5)];
    } while (g.rows_per_activation > g.rows);
    if (g.rows_per_activation > 32) {
      // Keep the full-group discharge within the bitline range, as the
      // ablation bench does.
      cfg.bitline.i_cell_ua *= 32.0 / g.rows_per_activation;
    }
    // The Table I / ablation sweeps: ADC resolution 3-7 bits and cell
    // mismatch up to 0.2 (noisy trials only).
    g.adc_bits = rng.uniform_int(3, 7);
    cfg.adc.bits = g.adc_bits;
    if (trial % 3 != 2) cfg.bitline.sigma_cell = sigma_options[trial % 5];
    const int m = m_options[rng.uniform_int(0, 4)];
    // One k in four is below one activation group, one in four sits at
    // the edge of the 64-row lane or the tile; the rest span one to three
    // row tiles and are rarely a multiple of rows.
    const int edges[] = {63, 64, 65, 127, 128, 129};
    const int pick = rng.uniform_int(0, 3);
    const int k = pick == 0   ? rng.uniform_int(1, g.rows_per_activation - 1)
                  : pick == 1 ? edges[rng.uniform_int(0, 5)]
                              : rng.uniform_int(1, 3 * g.rows);
    std::ostringstream what;
    what << "trial " << trial << " (ib " << g.input_bits << ", wb "
         << g.weight_bits << ", rows " << g.rows << ", group "
         << g.rows_per_activation << ", adc " << g.adc_bits << ", sigma "
         << cfg.bitline.sigma_cell << ", m " << m << ", k " << k << ")";
    expect_kernels_match_oracle(cfg, m, k, /*columns=*/3,
                                /*seed=*/1000 + trial, what.str());
    if (HasFatalFailure()) return;
  }
  if (best_analog_kernel() != AnalogKernel::kAvx512) {
    GTEST_SKIP() << "scalar kernel matched the oracle; no AVX-512 "
                    "F/BW/DQ/VL on this host (or a TSAN build), so the "
                    "vector kernel was not checked";
  }
}

TEST(AnalogKernels, SaturatedReadsHitTheTopOfTheTable) {
  // All-ones weights and activations turn on every cell, so each read of
  // a full group counts exactly max_count() = rows_per_activation cells:
  // the last row of the read table, on both kernels.
  for (const MacroConfig& cfg :
       {default_rom_macro(), default_sram_macro(), noise_free_rom()}) {
    const MacroGeometry& g = cfg.geometry;
    const int m = 9;
    const int k = 2 * g.rows;  // two full tiles of full groups
    const std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k, -1);
    const std::vector<std::uint8_t> x(static_cast<std::size_t>(k), 0xFF);
    const PackedRomWeights packed(w.data(), m, k, g);
    std::vector<AnalogKernel> kernels = {AnalogKernel::kScalar};
    if (best_analog_kernel() == AnalogKernel::kAvx512) {
      kernels.push_back(AnalogKernel::kAvx512);
    }
    std::vector<std::vector<std::int32_t>> outputs;
    for (const AnalogKernel kernel : kernels) {
      const CimMacro macro(cfg, kernel);
      ASSERT_EQ(macro.read_table().max_count(), g.rows_per_activation);
      MacroRunStats stats;
      std::vector<std::int32_t> y(static_cast<std::size_t>(m));
      std::vector<std::int32_t> sum(static_cast<std::size_t>(m), 0);
      for (int tile = 0; tile < packed.tile_count(); ++tile) {
        macro.mvm_packed(packed, tile, x.data() + tile * g.rows, y.data(),
                         /*noise_key=*/77 + tile, stats);
        for (int j = 0; j < m; ++j) sum[static_cast<std::size_t>(j)] += y[j];
      }
      // Every read saw a full group: cells = reads * rows_per_activation.
      const std::uint64_t reads = static_cast<std::uint64_t>(m) *
                                  g.weight_bits * g.input_bits *
                                  (k / g.rows_per_activation);
      EXPECT_EQ(stats.array.adc_conversions, reads);
      EXPECT_EQ(stats.array.precharge_energy_pj,
                static_cast<double>(reads * g.rows_per_activation) *
                    macro.expected_precharge_pj(1));
      outputs.push_back(sum);
    }
    for (const auto& y : outputs) EXPECT_EQ(y, outputs.front());
  }
}

TEST(NoiseKeys, RomAndSramNeverShareAStream) {
  // Keys hash the macro kind, so no (seed, coordinates) of one engine
  // reproduces a stream of the other. Seeds include s ^ 0x5A5A: salting
  // the SRAM seed by XOR instead would make SRAM(s) replay ROM(s ^ 0x5A5A).
  const std::uint64_t seeds[] = {0, 1, 2024, 2024 ^ 0x5A5A, 0x5A5A, 777};
  const auto keys = [&](MacroKind kind) {
    std::unordered_set<std::uint64_t> out;
    for (const std::uint64_t seed : seeds) {
      for (int image = 0; image < 3; ++image) {
        for (std::uint64_t layer = 0; layer < 4; ++layer) {
          for (int tile = 0; tile < 3; ++tile) {
            for (int pixel = 0; pixel < 16; ++pixel) {
              out.insert(mvm_noise_key(image_noise_key(seed, image), kind,
                                       layer, tile, pixel));
            }
          }
        }
      }
    }
    return out;
  };
  const auto rom = keys(MacroKind::kRom);
  const auto sram = keys(MacroKind::kSram);
  EXPECT_EQ(rom.size(), 6u * 3 * 4 * 3 * 16) << "keys collide within ROM";
  for (const std::uint64_t k : sram) {
    ASSERT_EQ(rom.count(k), 0u) << "an SRAM key replays a ROM stream";
  }

  // End to end: the same analog macro tagged ROM vs SRAM reads the same
  // workload with different noise under one set of keys. (SRAM noise:
  // at the ROM default, codes almost never leave the ideal code.)
  MacroConfig as_rom = default_sram_macro();
  as_rom.kind = MacroKind::kRom;
  const CimMacro rom_macro(as_rom);
  const CimMacro sram_macro(default_sram_macro());
  const MacroMvmEngine rom_engine(rom_macro, MacroMvmEngine::Mode::kAnalog);
  const MacroMvmEngine sram_engine(sram_macro, MacroMvmEngine::Mode::kAnalog);
  const int m = 16;
  const int k = 128;
  const int p = 8;
  const auto w = random_weights(m, k, 111);
  const auto x = random_acts(k, p, 111);
  const auto run = [&](const MacroMvmEngine& engine) {
    NoiseKeys noise;
    noise.images = {image_noise_key(2024, 0)};
    MacroRunStats stats;
    MvmSession session{&noise, &stats, nullptr};
    std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
    engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);
    return y;
  };
  EXPECT_NE(run(rom_engine), run(sram_engine));
}

TEST(NoiseKeys, ColumnsSplitOverImagesInOrder) {
  // One call over two images equals two one-image calls: column col is
  // pixel col % pixels of image col / pixels.
  const CimMacro macro(default_rom_macro());
  const MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
  const int m = 8;
  const int k = 100;
  const int pixels = 3;
  const auto w = random_weights(m, k, 112);
  const auto x = random_acts(k, 2 * pixels, 112);
  NoiseKeys both;
  both.images = {image_noise_key(9, 0), image_noise_key(9, 1)};
  MacroRunStats stats;
  MvmSession session{&both, &stats, nullptr};
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * 2 * pixels);
  engine.mvm_batch(w.data(), m, k, x.data(), 2 * pixels, y.data(), session);
  for (int image = 0; image < 2; ++image) {
    std::vector<std::uint8_t> xi(static_cast<std::size_t>(k) * pixels);
    for (int i = 0; i < k; ++i) {
      for (int c = 0; c < pixels; ++c) {
        xi[static_cast<std::size_t>(i) * pixels + c] =
            x[static_cast<std::size_t>(i) * 2 * pixels + image * pixels + c];
      }
    }
    NoiseKeys one;
    one.images = {image_noise_key(9, image)};
    MvmSession single{&one, &stats, nullptr};
    std::vector<std::int32_t> yi(static_cast<std::size_t>(m) * pixels);
    engine.mvm_batch(w.data(), m, k, xi.data(), pixels, yi.data(), single);
    for (int j = 0; j < m; ++j) {
      for (int c = 0; c < pixels; ++c) {
        EXPECT_EQ(yi[static_cast<std::size_t>(j) * pixels + c],
                  y[static_cast<std::size_t>(j) * 2 * pixels +
                    image * pixels + c])
            << "image " << image << " row " << j << " pixel " << c;
      }
    }
  }
}

}  // namespace
}  // namespace yoloc
