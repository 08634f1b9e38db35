#pragma once
// MvmEngine backed by the CiM macro model: every integer MVM issued by a
// quantized layer is tiled over macro subarrays and executed through the
// analog bitline/ADC path (or the exact-cost path), accumulating
// energy/latency statistics along the way.
//
// This is the piece that closes the loop between the NN substrate and the
// circuit substrate: running a quantized network with this engine yields
// simultaneously (a) task accuracy under analog non-idealities and
// (b) measured compute energy per inference.
//
// The engine is reentrant: it holds the macro model, the mode and its
// own PackedWeightsCache, whose packings are immutable once built. The
// noise keys and the run statistics travel in the caller's MvmSession,
// so any number of requests can execute through one engine concurrently,
// each with its own session — drive it through an ExecutionContext /
// MvmBinding (src/runtime/), which wires a session per request.
//
// Analog noise is keyed per (image, engine, layer, k-tile, output pixel)
// and per read within the tile (NoiseKeys below), so it does not depend
// on the order in which columns, tiles or reads run.
//
// Every call runs the packed kernels: mvm_batch resolves (or builds,
// once) the PackedRomWeights for the layer's weight buffer and drives
// CimMacro::mvm_packed / mvm_packed_exact_cost per (k-tile, column).

#include <cstdint>
#include <vector>

#include "macro/cim_macro.hpp"
#include "macro/packed_weights.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

/// Key material of counter-keyed analog noise for one forward pass. An
/// ADC read's uniform is hash-chained from, in order: the request's noise
/// seed and the image's index within its request (`images`, one key per
/// image of the pass, see image_noise_key), the engine's macro kind, the
/// layer ordinal (`calls`: mvm_batch calls issued since the keys were
/// reseeded), the reduction tile, the output pixel (mvm_noise_key) and
/// the read's index within its tile (CimMacro). Noise therefore follows
/// the image: a request fused into a micro-batch sees exactly the noise
/// of a serial run.
struct NoiseKeys {
  std::vector<std::uint64_t> images;
  std::uint64_t calls = 0;
};

/// Key of image `index` of a request seeded `seed`.
inline std::uint64_t image_noise_key(std::uint64_t seed, int index) {
  return hash_chain(hash64(seed), static_cast<std::uint64_t>(index));
}

/// Noise key of one (k-tile, output pixel) macro call on a `kind` macro,
/// for the image keyed `image_key` at layer ordinal `layer`. Hashing the
/// macro kind keeps the ROM and SRAM streams of one request apart.
std::uint64_t mvm_noise_key(std::uint64_t image_key, MacroKind kind,
                            std::uint64_t layer, int tile, int pixel);

class MacroMvmEngine final : public MvmEngine {
 public:
  enum class Mode {
    kAnalog,     // bitline + ADC + mismatch noise (accuracy + cost)
    kExactCost,  // bit-exact math, modeled cost (cost-only studies)
  };

  /// `macro` must outlive the engine.
  MacroMvmEngine(const CimMacro& macro, Mode mode);

  /// Requires session.stats; kAnalog additionally requires
  /// session.noise, whose image count must divide p.
  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const CimMacro& macro() const { return *macro_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  /// The packing of the (m x k) weight buffer `w` for this macro,
  /// built on first use and reused by every later call with `w`.
  /// Exact-cost mode never reads the bit-planes (it MACs the raw int8
  /// rows), so it gets the boundaries-only packing.
  const PackedRomWeights& packed(const std::int8_t* w, int m, int k) const;
  /// Every packing this engine holds; the weight buffers they were
  /// built from must outlive the engine.
  [[nodiscard]] const PackedWeightsCache& packed_cache() const {
    return packed_cache_;
  }

 private:
  const CimMacro* macro_;
  Mode mode_;
  PackedWeightsCache packed_cache_;
};

}  // namespace yoloc
