// Kernel-level throughput of the CiM macro MVM: packed (deploy-time
// weight bit-plane packing, PR "ROM packing") vs legacy (per-call mask
// derivation — the pre-packing baseline, still compiled unchanged) across
// {rows, input_bits, weight_bits} geometries, in analog mode with the
// default ROM noise, in noise-free analog mode (sigma_cell = 0,
// adc noise = 0 — the configuration every fidelity test runs), and in
// exact-cost mode. One JSON line per (shape, variant, path, kernel), same
// trajectory-file conventions as bench_serving_throughput:
//
//   {"bench":"macro_mvm","path":"packed","kernel":"avx512",
//    "variant":"analog",...,"ns_per_mac":..,"ns_per_adc_read":..,
//    "columns_per_s":..,"pack_ms":..,"speedup_vs_legacy":..}
//
// `kernel` names the analog kernel the row ran (see macro/cim_macro.hpp):
// "avx512" only on packed analog rows of a host that has it. The legacy
// path and exact-cost mode always run scalar code. On an AVX-512 host
// each analog variant gets two packed rows, the dispatched AVX-512 kernel
// and the scalar kernel, so the file shows the kernel's own speedup.
// `ns_per_adc_read` is reported on analog rows only.
//
// The shapes are the four kernel sweeps at m = 128, p = 16 (k = rows, or
// 2 * rows + 10 to cross row tiles) plus one served shape: m = 8, k = 72,
// p = 256, the second conv of the served VGG-8-lite on a 16x16 image.
//
// Before timing, each configuration asserts that the packed outputs and
// run stats of every kernel are bit-identical to the legacy path under
// the same seed — the bench refuses to report a speedup for a kernel that
// changed results. Every row records the host's core count
// (`host_cores`).
//
//   build/bench_macro_mvm [--seconds=S]   (default 0.4s per cell)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/macro_engine.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

struct Geometry {
  int rows;
  int input_bits;
  int weight_bits;
};

struct Shape {
  Geometry geom;
  int m;  // output rows
  int k;  // reduction length
  int p;  // im2col columns per engine call
};

struct Variant {
  const char* name;
  MacroMvmEngine::Mode mode;
  bool noise_free;
};

struct Measurement {
  double seconds = 0.0;
  std::uint64_t columns = 0;
  double pack_ms = 0.0;
  std::size_t packed_bytes = 0;
};

MacroConfig make_config(const Geometry& geom, bool noise_free) {
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.rows = geom.rows;
  cfg.geometry.input_bits = geom.input_bits;
  cfg.geometry.weight_bits = geom.weight_bits;
  if (cfg.geometry.rows_per_activation > geom.rows) {
    cfg.geometry.rows_per_activation = geom.rows;
  }
  if (noise_free) {
    cfg.bitline.sigma_cell = 0.0;
    cfg.adc.noise_sigma_v = 0.0;
  }
  cfg.validate();
  return cfg;
}

/// Noise keys treating every column as a pixel of one image.
NoiseKeys one_image_keys(std::uint64_t seed) {
  NoiseKeys keys;
  keys.images.push_back(image_noise_key(seed, 0));
  return keys;
}

/// True when outputs AND every modeled stat agree exactly.
bool bit_identical(const std::vector<std::int32_t>& ya,
                   const std::vector<std::int32_t>& yb,
                   const MacroRunStats& sa, const MacroRunStats& sb) {
  return ya == yb && sa.array.adc_conversions == sb.array.adc_conversions &&
         sa.array.wl_pulses == sb.array.wl_pulses &&
         sa.array.shift_adds == sb.array.shift_adds &&
         sa.array.adc_energy_pj == sb.array.adc_energy_pj &&
         sa.array.precharge_energy_pj == sb.array.precharge_energy_pj &&
         sa.array.wl_energy_pj == sb.array.wl_energy_pj &&
         sa.array.shift_add_energy_pj == sb.array.shift_add_energy_pj &&
         sa.macro_ops == sb.macro_ops && sa.macs == sb.macs &&
         sa.latency_ns == sb.latency_ns;
}

Measurement run_path(const MacroMvmEngine& engine, int m, int k, int p,
                     const std::vector<std::int8_t>& w,
                     const std::vector<std::uint8_t>& x, double min_seconds) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
  NoiseKeys keys = one_image_keys(11);
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{&keys, &stats, &scratch};
  engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);  // warm

  Measurement out;
  const auto start = Clock::now();
  int iters = 0;
  for (;;) {
    engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);
    ++iters;
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (out.seconds >= min_seconds && iters >= 3) break;
  }
  out.columns = static_cast<std::uint64_t>(iters) * p;
  if (const PackedWeightsCache* cache = engine.packed_cache()) {
    out.pack_ms = cache->total_pack_ms();
    out.packed_bytes = cache->packed_bytes();
  }
  return out;
}

const char* kernel_name(AnalogKernel kernel) {
  return kernel == AnalogKernel::kAvx512 ? "avx512" : "scalar";
}

/// Prints one row. `reads_per_column` > 0 adds ns_per_adc_read;
/// `legacy_cols_s` adds speedup_vs_legacy and the packing fields.
void emit_row(const char* path, AnalogKernel kernel, const Variant& variant,
              const Shape& shape, unsigned host_cores, const Measurement& me,
              double macs, double reads_per_column,
              const double* legacy_cols_s) {
  const double columns = static_cast<double>(me.columns);
  const double cols_s = columns / me.seconds;
  std::printf(
      "{\"bench\":\"macro_mvm\",\"path\":\"%s\",\"kernel\":\"%s\","
      "\"variant\":\"%s\",\"rows\":%d,\"input_bits\":%d,"
      "\"weight_bits\":%d,\"m\":%d,\"k\":%d,\"p\":%d,\"host_cores\":%u,"
      "\"ns_per_mac\":%.4f",
      path, kernel_name(kernel), variant.name, shape.geom.rows,
      shape.geom.input_bits, shape.geom.weight_bits, shape.m, shape.k,
      shape.p, host_cores, me.seconds * 1e9 / (macs * columns));
  if (reads_per_column > 0.0) {
    std::printf(",\"ns_per_adc_read\":%.4f",
                me.seconds * 1e9 / (reads_per_column * columns));
  }
  std::printf(",\"columns_per_s\":%.1f", cols_s);
  if (legacy_cols_s != nullptr) {
    std::printf(",\"pack_ms\":%.4f,\"packed_bytes\":%zu,"
                "\"speedup_vs_legacy\":%.2f",
                me.pack_ms, me.packed_bytes, cols_s / *legacy_cols_s);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  double min_seconds = 0.4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      min_seconds = std::atof(argv[i] + 10);
    }
  }

  const Shape shapes[] = {
      {{128, 8, 8}, 128, 128, 16},  // paper Table I operating point
      {{128, 4, 4}, 128, 128, 16},
      {{64, 8, 8}, 128, 138, 16},  // k > rows: the multi-tile path
      {{64, 4, 4}, 128, 138, 16},
      {{128, 8, 8}, 8, 72, 256},  // served: VGG-8-lite stage0.conv2
  };
  const Variant variants[] = {
      {"analog", MacroMvmEngine::Mode::kAnalog, false},
      {"analog_noise_free", MacroMvmEngine::Mode::kAnalog, true},
      {"exact_cost", MacroMvmEngine::Mode::kExactCost, false},
  };
  const unsigned host_cores = std::thread::hardware_concurrency();

  for (const Shape& shape : shapes) {
    const Geometry& geom = shape.geom;
    const int m = shape.m;
    const int k = shape.k;
    const int p = shape.p;
    Rng init(3);
    std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
    std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
    for (auto& v : w) v = static_cast<std::int8_t>(init.uniform_int(-127, 127));
    for (auto& v : x) v = static_cast<std::uint8_t>(init.uniform_int(0, 255));

    for (const Variant& variant : variants) {
      const MacroConfig cfg = make_config(geom, variant.noise_free);
      const bool analog = variant.mode == MacroMvmEngine::Mode::kAnalog;
      const CimMacro macro(cfg, AnalogKernel::kScalar);
      const MacroMvmEngine legacy(macro, variant.mode);
      // Packed rows: the scalar kernel, plus the AVX-512 kernel where
      // this host runs it (analog variants only; exact-cost never enters
      // either analog kernel).
      std::vector<AnalogKernel> kernels = {AnalogKernel::kScalar};
      if (analog && best_analog_kernel() == AnalogKernel::kAvx512) {
        kernels.push_back(AnalogKernel::kAvx512);
      }
      // The legacy path's ADC reads per column: m * wb * ib * groups,
      // summed over row tiles.
      MacroRunStats probe;
      {
        NoiseKeys keys = one_image_keys(7);
        MvmSession session{&keys, &probe, nullptr};
        std::vector<std::int32_t> y(static_cast<std::size_t>(m));
        legacy.mvm_batch(w.data(), m, k, x.data(), 1, y.data(), session);
      }
      const double reads_per_column =
          static_cast<double>(probe.array.adc_conversions);

      const Measurement lm = run_path(legacy, m, k, p, w, x, min_seconds);
      const double macs = static_cast<double>(m) * k;
      const double legacy_cols_s =
          static_cast<double>(lm.columns) / lm.seconds;
      emit_row("legacy", AnalogKernel::kScalar, variant, shape, host_cores,
               lm, macs, analog ? reads_per_column : 0.0, nullptr);

      for (const AnalogKernel kernel : kernels) {
        const CimMacro kernel_macro(cfg, kernel);
        PackedWeightsCache cache;
        const MacroMvmEngine packed(kernel_macro, variant.mode, &cache);
        // Refuse to time a kernel whose results changed.
        {
          std::vector<std::int32_t> ya(static_cast<std::size_t>(m) * p);
          std::vector<std::int32_t> yb(static_cast<std::size_t>(m) * p);
          NoiseKeys ka = one_image_keys(7);
          NoiseKeys kb = one_image_keys(7);
          MacroRunStats sa, sb;
          MvmScratch sca, scb;
          MvmSession sea{&ka, &sa, &sca}, seb{&kb, &sb, &scb};
          legacy.mvm_batch(w.data(), m, k, x.data(), p, ya.data(), sea);
          packed.mvm_batch(w.data(), m, k, x.data(), p, yb.data(), seb);
          if (!bit_identical(ya, yb, sa, sb)) {
            std::fprintf(stderr,
                         "FATAL: packed %s kernel diverged from legacy at "
                         "rows=%d ib=%d wb=%d m=%d k=%d variant=%s\n",
                         kernel_name(kernel), geom.rows,
                         geom.input_bits, geom.weight_bits, m, k,
                         variant.name);
            return 1;
          }
        }
        const Measurement pm = run_path(packed, m, k, p, w, x, min_seconds);
        emit_row("packed", kernel, variant, shape, host_cores, pm, macs,
                 analog ? reads_per_column : 0.0, &legacy_cols_s);
      }
    }
  }
  return 0;
}
