// The AVX-512 analog kernel behind CimMacro::mvm_packed: eight output
// rows per vector, one per 64-bit lane (see cim_macro.hpp).
//
// Every lane walks its own reads (b, t, grp) in the scalar kernel's
// order and repeats its arithmetic step for step:
//   count = popcount(w_plane & x_plane & group_mask)
//   u     = hash64(noise_key + j * R + read)      R = reads per row
//   code  = lowest[count] + #{i : u >> 1 >= thresholds[count][i]}
//   acc  += (code * counts_per_code) * cycle_weight
// The code is looked up with permutes while every lane counts fewer
// than 16 cells (the table's first 16 rows fit in two registers per
// column) and with gathers otherwise. cycle_weight is a power of two, so
// the product is exact and a fused multiply-add rounds like the separate
// add. Outputs and the cost counts are therefore bit-identical to the
// scalar kernel; the differential test in tests/test_packed_weights.cpp
// pins that.
//
// The kernel is compiled with a target attribute rather than
// target_clones: the clone resolver runs before the ThreadSanitizer
// runtime is up. TSAN builds leave the kernel out altogether, so on an
// AVX-512 host the TSAN gate still runs the scalar kernel that other
// hosts serve with, while tier-1 and ASan run this one.

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "macro/cim_macro.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define YOLOC_AVX512_KERNEL 1
#include <immintrin.h>
#define YOLOC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,popcnt")))
// GCC 12's AVX-512 intrinsics seed their results with
// _mm512_undefined_*(), which -Wuninitialized flags wherever they are
// inlined into a target-attribute function (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace yoloc {

#ifdef YOLOC_AVX512_KERNEL

AnalogKernel best_analog_kernel() {
  static const AnalogKernel kernel = [] {
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512bw") &&
                        __builtin_cpu_supports("avx512dq") &&
                        __builtin_cpu_supports("avx512vl") &&
                        __builtin_cpu_supports("popcnt");
    return avx512 ? AnalogKernel::kAvx512 : AnalogKernel::kScalar;
  }();
  return kernel;
}

namespace {

/// hash64 (common/rng.hpp) of each 64-bit lane.
YOLOC_AVX512_TARGET inline __m512i hash64_x8(__m512i x) {
  x = _mm512_add_epi64(x, _mm512_set1_epi64(0x9e3779b97f4a7c15ll));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         _mm512_set1_epi64(0xbf58476d1ce4e5b9ll));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         _mm512_set1_epi64(0x94d049bb133111ebll));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/// Popcount of every byte (nibble lookup; no VPOPCNTQ needed).
YOLOC_AVX512_TARGET inline __m512i popcount_bytes(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i nibble = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, nibble);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nibble);
  return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                         _mm512_shuffle_epi8(lut, hi));
}

/// ReadCodeTable::code(count, u) of each lane, given draw = u >> 1.
YOLOC_AVX512_TARGET inline __m512i read_codes(const ReadCodeTable& table,
                                              __m512i count, __m512i draw) {
  const int width = table.width();
  const std::size_t stride = static_cast<std::size_t>(table.stride());
  const int* lowest = table.lowest_codes();
  const std::uint64_t* thresholds = table.thresholds();
  const __m512i one = _mm512_set1_epi64(1);
  __m512i code;
  if (_mm512_cmpge_epu64_mask(count, _mm512_set1_epi64(16)) == 0) {
    // Counts below 16, the common case: permutes pick the entries from
    // the first 16 rows. As dwords a count lane is (count, 0), so the
    // dword permute yields (lowest[count], lowest[0]); the mask keeps
    // the first.
    code = _mm512_and_si512(
        _mm512_permutexvar_epi32(count, _mm512_loadu_si512(lowest)),
        _mm512_set1_epi64(0xffffffffll));
    for (int i = 0; i < width; ++i) {
      const std::uint64_t* column = thresholds + i * stride;
      const __m512i threshold = _mm512_permutex2var_epi64(
          _mm512_loadu_si512(column), count, _mm512_loadu_si512(column + 8));
      code = _mm512_mask_add_epi64(
          code, _mm512_cmpge_epu64_mask(draw, threshold), code, one);
    }
    return code;
  }
  __m256i at = _mm512_cvtepi64_epi32(count);
  code = _mm512_cvtepi32_epi64(_mm256_i32gather_epi32(lowest, at, 4));
  for (int i = 0; i < width; ++i) {
    const __m512i threshold = _mm512_i32gather_epi64(at, thresholds, 8);
    code = _mm512_mask_add_epi64(
        code, _mm512_cmpge_epu64_mask(draw, threshold), code, one);
    at = _mm256_add_epi32(at, _mm256_set1_epi32(static_cast<int>(stride)));
  }
  return code;
}

/// Byte mask of the first `n` of 64 bytes.
inline __mmask64 first_bytes(int n) {
  if (n <= 0) return 0;
  return n >= 64 ? ~0ull : (1ull << n) - 1;
}

}  // namespace

YOLOC_AVX512_TARGET
CimMacro::KernelCounts CimMacro::mvm_packed_avx512(
    const PackedRomWeights& packed, const PackedRomWeights::Tile& tile,
    const std::uint8_t* x, std::int32_t* y, std::uint64_t noise_key) const {
  const int m = packed.m();
  const int k = tile.k_size;
  const int groups = tile.groups;
  const int weight_bits = packed.weight_bits();
  const int input_bits = packed.input_bits();

  // Activation bit-planes: testing 64 activation bytes against bit t
  // yields lane 0 (rows 0-63) or lane 1 (rows 64-127) of plane t.
  const __m512i x_lo = _mm512_maskz_loadu_epi8(first_bytes(k), x);
  const __m512i x_hi = k > 64
                           ? _mm512_maskz_loadu_epi8(first_bytes(k - 64),
                                                     x + 64)
                           : _mm512_setzero_si512();
  std::uint64_t x_plane[8][2];
  KernelCounts counts;
  for (int t = 0; t < input_bits; ++t) {
    const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << t));
    x_plane[t][0] = _mm512_test_epi8_mask(x_lo, bit);
    x_plane[t][1] = _mm512_test_epi8_mask(x_hi, bit);
    counts.pulses += static_cast<std::uint64_t>(std::popcount(x_plane[t][0]) +
                                                std::popcount(x_plane[t][1]));
  }

  const double* bcw = packed.bit_cycle_weight();
  const RowMask* gmasks = tile.group_masks.data();
  // Groups of whole bytes (rows_per_activation % 8 == 0) are counted from
  // one byte popcount of w & x per (b, t): each group masks its bytes of
  // it. A last group cut short by k may take its whole last byte, as x is
  // zero past k. Other groups AND their bit mask before the popcount.
  const bool byte_groups = packed.rows_per_activation() % 8 == 0;
  std::uint64_t group_bytes[16][2] = {};
  for (int grp = 0; byte_groups && grp < groups; ++grp) {
    for (int half = 0; half < 2; ++half) {
      for (int byte = 0; byte < 8; ++byte) {
        if ((gmasks[grp].lane[half] >> (8 * byte)) & 0xFFu) {
          group_bytes[grp][half] |= 0xFFull << (8 * byte);
        }
      }
    }
  }
  // wbits[j * weight_bits + b] is two 64-bit lanes: element
  // 2 * (j * weight_bits + b) + half of this array.
  const void* planes = tile.wbits.data();
  const long long reads_per_row =
      static_cast<long long>(weight_bits) * input_bits * groups;

  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512d counts_per_code = _mm512_set1_pd(counts_per_code_);
  const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  __m512i cells = zero;

  for (int j0 = 0; j0 < m; j0 += 8) {
    // Lanes past m read zero planes: count 0, so they add no cells.
    const __mmask8 live =
        m - j0 >= 8 ? 0xFF : static_cast<__mmask8>((1u << (m - j0)) - 1);
    const __m512i rows = _mm512_add_epi64(_mm512_set1_epi64(j0), lane);
    const __m512i row_plane = _mm512_mullo_epi64(
        rows, _mm512_set1_epi64(2ll * weight_bits));
    __m512i key = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(noise_key)),
        _mm512_mullo_epi64(rows, _mm512_set1_epi64(reads_per_row)));
    __m512d acc = _mm512_setzero_pd();
    for (int b = 0; b < weight_bits; ++b) {
      const __m512i at = _mm512_add_epi64(row_plane, _mm512_set1_epi64(2 * b));
      const __m512i w0 = _mm512_mask_i64gather_epi64(zero, live, at, planes, 8);
      const __m512i w1 = _mm512_mask_i64gather_epi64(
          zero, live, _mm512_add_epi64(at, one), planes, 8);
      for (int t = 0; t < input_bits; ++t) {
        const __m512i wx0 = _mm512_and_si512(
            w0, _mm512_set1_epi64(static_cast<long long>(x_plane[t][0])));
        const __m512i wx1 = _mm512_and_si512(
            w1, _mm512_set1_epi64(static_cast<long long>(x_plane[t][1])));
        const __m512d cycle_weight =
            _mm512_set1_pd(bcw[static_cast<std::size_t>(b) * input_bits + t]);
        const __m512i on0 = popcount_bytes(wx0);
        const __m512i on1 = popcount_bytes(wx1);
        for (int grp = 0; grp < groups; ++grp) {
          __m512i on;
          if (byte_groups) {
            on = _mm512_add_epi8(
                _mm512_and_si512(on0, _mm512_set1_epi64(static_cast<long long>(
                                          group_bytes[grp][0]))),
                _mm512_and_si512(on1, _mm512_set1_epi64(static_cast<long long>(
                                          group_bytes[grp][1]))));
          } else {
            const RowMask& g = gmasks[grp];
            on = _mm512_add_epi8(
                popcount_bytes(_mm512_and_si512(
                    wx0, _mm512_set1_epi64(static_cast<long long>(g.lane[0])))),
                popcount_bytes(_mm512_and_si512(
                    wx1,
                    _mm512_set1_epi64(static_cast<long long>(g.lane[1])))));
          }
          const __m512i count = _mm512_sad_epu8(on, zero);
          cells = _mm512_add_epi64(cells, count);

          const __m512i draw = _mm512_srli_epi64(hash64_x8(key), 1);
          key = _mm512_add_epi64(key, one);
          const __m512i code = read_codes(table_, count, draw);
          const __m512d est =
              _mm512_mul_pd(_mm512_cvtepi64_pd(code), counts_per_code);
          acc = _mm512_add_pd(acc, _mm512_mul_pd(est, cycle_weight));
        }
      }
    }
    alignas(64) double out[8];
    _mm512_store_pd(out, acc);
    for (int l = 0; l < 8 && j0 + l < m; ++l) {
      y[j0 + l] = static_cast<std::int32_t>(std::llround(out[l]));
    }
  }
  counts.cells = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(cells));
  return counts;
}

#else  // no AVX-512 kernel in this build

AnalogKernel best_analog_kernel() { return AnalogKernel::kScalar; }

CimMacro::KernelCounts CimMacro::mvm_packed_avx512(
    const PackedRomWeights&, const PackedRomWeights::Tile&,
    const std::uint8_t*, std::int32_t*, std::uint64_t) const {
  // Unreachable: the constructor only accepts kAvx512 where
  // best_analog_kernel() returns it.
  YOLOC_CHECK(false, "cim macro: the AVX-512 kernel is not compiled");
  return {};
}

#endif

}  // namespace yoloc
