#pragma once
// Deploy-time ROM weight packing: the operand layout every CimMacro
// kernel (macro/cim_macro.*) reads.
//
// The premise of ROM-based CiM is that weights are immutable after
// tape-out: the bit-sliced column pattern a weight matrix occupies in the
// subarray is fixed for the lifetime of the chip. Deriving every output
// row's weight bit-plane masks per im2col column would be
// O(m * k * weight_bits) redundant work per column that dwarfs the
// popcount + ADC math it feeds.
//
// PackedRomWeights performs that expansion exactly once per (weight
// buffer, macro geometry): per subarray row-tile it stores each output
// row's weight bit-planes as 128-bit row masks, the per-activation-group
// boundary masks (so the inner count becomes unmasked AND + popcount
// instead of branchy range clamping), and the digital shift-add weight
// table bit_weight[b] * 2^t. The structure is immutable after
// construction and is shared read-only by every ExecutionContext serving
// the plan — only activations move at serve time.
//
// PackedWeightsCache maps a layer's weight buffer to its packing. Every
// MacroMvmEngine owns one (core/macro_engine.hpp), so a DeploymentPlan
// holds one per macro and pre-packs every quantized layer at
// lowering/load time; the cache also packs lazily (under a shared_mutex)
// on an engine's first call with a weight buffer it has not seen.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "macro/macro_config.hpp"

namespace yoloc {

/// 128 rows fit two 64-bit lanes; mask type for subarray row bitsets.
struct RowMask {
  std::uint64_t lane[2] = {0, 0};

  void set(int i) { lane[i >> 6] |= (1ull << (i & 63)); }

  /// Popcount of (this & x & group): two unmasked AND + popcounts per
  /// lane, no range clamping.
  [[nodiscard]] int count_and3(const RowMask& x, const RowMask& group) const {
    return std::popcount(lane[0] & x.lane[0] & group.lane[0]) +
           std::popcount(lane[1] & x.lane[1] & group.lane[1]);
  }

  [[nodiscard]] int count() const {
    return std::popcount(lane[0]) + std::popcount(lane[1]);
  }

  // Lane-wise mask combinators (fault overlays in cim_macro.cpp).
  void or_with(const RowMask& m) {
    lane[0] |= m.lane[0];
    lane[1] |= m.lane[1];
  }
  void and_not(const RowMask& m) {
    lane[0] &= ~m.lane[0];
    lane[1] &= ~m.lane[1];
  }
  void xor_with(const RowMask& m) {
    lane[0] ^= m.lane[0];
    lane[1] ^= m.lane[1];
  }
};

/// Immutable compute-native layout of one weight matrix for one macro
/// geometry. `w` is (m x k) row-major int8; the reduction dimension is
/// tiled over subarray row capacity exactly like MacroMvmEngine tiles it,
/// so tile t covers rows [t*rows, min(k, (t+1)*rows)).
class PackedRomWeights {
 public:
  struct Tile {
    int k0 = 0;      // first source row of this tile
    int k_size = 0;  // rows in this tile (<= geometry rows)
    int groups = 0;  // ceil(k_size / rows_per_activation)
    /// Activation-group boundary masks, one per group.
    std::vector<RowMask> group_masks;
    /// Weight bit-planes: wbits[j * weight_bits + b] holds bit b of
    /// output row j's weights over this tile's rows — exactly the
    /// columns the ROM physically stores. Only the analog path reads
    /// these; the exact-cost path keeps its integer MAC on the raw int8
    /// rows (which also covers weights overflowing a narrow
    /// weight_bits).
    std::vector<RowMask> wbits;
  };

  /// `pack_planes = false` builds only the tile boundaries and group
  /// masks (what the exact-cost path needs — it MACs the raw int8 rows
  /// and never reads wbits), skipping the plane expansion's time and
  /// memory.
  PackedRomWeights(const std::int8_t* w, int m, int k,
                   const MacroGeometry& geometry, bool pack_planes = true);

  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int weight_bits() const { return weight_bits_; }
  [[nodiscard]] int input_bits() const { return input_bits_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int rows_per_activation() const {
    return rows_per_activation_;
  }
  [[nodiscard]] int tile_count() const {
    return static_cast<int>(tiles_.size());
  }
  [[nodiscard]] const Tile& tile(int i) const {
    return tiles_[static_cast<std::size_t>(i)];
  }
  /// False when built with pack_planes = false (exact-cost deployments):
  /// tiles carry boundaries and group masks but empty wbits.
  [[nodiscard]] bool has_planes() const { return has_planes_; }

  /// Digital shift-add weights: entry [b * input_bits + t] is
  /// bit_weight(b) * 2^t, with the MSB carrying its two's-complement
  /// negative factor. Both factors are exact powers of two, so folding
  /// them into one table keeps the accumulation bit-identical to the
  /// (est * bit_weight) * 2^t order.
  [[nodiscard]] const double* bit_cycle_weight() const {
    return bit_cycle_weight_.data();
  }

  /// One-time packing cost [ms] (reported by bench_macro_mvm).
  [[nodiscard]] double pack_ms() const { return pack_ms_; }
  /// Resident size of the packed representation [bytes] — roughly the
  /// size of the int8 weight buffer itself (128 int8 weights expand to
  /// weight_bits 16-byte masks).
  [[nodiscard]] std::size_t packed_bytes() const { return packed_bytes_; }

 private:
  int m_;
  int k_;
  int rows_;
  int weight_bits_;
  int input_bits_;
  int rows_per_activation_;
  bool has_planes_ = true;
  std::vector<Tile> tiles_;
  std::vector<double> bit_cycle_weight_;
  double pack_ms_ = 0.0;
  std::size_t packed_bytes_ = 0;
};

/// Concurrent read-mostly registry: weight buffer -> packing. Keyed by
/// (data pointer, m, k); one cache serves exactly one macro geometry (a
/// DeploymentPlan owns one per engine), which a geometry check enforces
/// on every hit. Entries are never evicted — the backing weight buffers
/// live as long as the plan that owns this cache.
class PackedWeightsCache {
 public:
  PackedWeightsCache() = default;
  PackedWeightsCache(const PackedWeightsCache&) = delete;
  PackedWeightsCache& operator=(const PackedWeightsCache&) = delete;

  /// Returns the packing for `w`, building it on first touch. Safe to
  /// call concurrently; callers may retain the reference for the
  /// lifetime of the cache. `pack_planes = false` requests the
  /// boundaries-only packing (exact-cost engines). A cheap sampled
  /// content check runs on every hit: it turns the most likely form of
  /// key-aliasing (a freed weight buffer reallocated at the same
  /// address with different contents) into a loud error instead of
  /// silently stale bit-planes — the real invariant remains that cached
  /// weight buffers outlive the cache, as plan-owned caches guarantee.
  const PackedRomWeights& get_or_pack(const std::int8_t* w, int m, int k,
                                      const MacroGeometry& geometry,
                                      bool pack_planes = true) const;

  [[nodiscard]] std::size_t entries() const;
  /// Total resident bytes across all packings.
  [[nodiscard]] std::size_t packed_bytes() const;
  /// Total one-time packing cost [ms] across all packings.
  [[nodiscard]] double total_pack_ms() const;

 private:
  struct Key {
    const std::int8_t* w;
    int m;
    int k;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h = std::hash<const void*>{}(key.w);
      h ^= std::hash<int>{}(key.m) + 0x9e3779b9 + (h << 6) + (h >> 2);
      h ^= std::hash<int>{}(key.k) + 0x9e3779b9 + (h << 6) + (h >> 2);
      return h;
    }
  };

  struct Entry {
    std::unique_ptr<PackedRomWeights> packed;
    /// Sampled weight bytes (first/middle/last) captured at pack time;
    /// rechecked on every hit (see get_or_pack).
    std::array<std::int8_t, 3> sample{};
  };

  mutable std::shared_mutex mutex_;
  mutable std::unordered_map<Key, Entry, KeyHash> entries_;
};

}  // namespace yoloc
