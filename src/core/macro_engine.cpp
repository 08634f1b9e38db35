#include "core/macro_engine.hpp"

#include <vector>

#include "common/check.hpp"

namespace yoloc {

std::uint64_t mvm_noise_key(std::uint64_t image_key, MacroKind kind,
                            std::uint64_t layer, int tile, int pixel) {
  std::uint64_t h = hash_chain(image_key, static_cast<std::uint64_t>(kind));
  h = hash_chain(h, layer);
  h = hash_chain(h, static_cast<std::uint64_t>(tile));
  return hash_chain(h, static_cast<std::uint64_t>(pixel));
}

MacroMvmEngine::MacroMvmEngine(const CimMacro& macro, Mode mode)
    : macro_(&macro), mode_(mode) {}

const PackedRomWeights& MacroMvmEngine::packed(const std::int8_t* w, int m,
                                               int k) const {
  return packed_cache_.get_or_pack(w, m, k, macro_->config().geometry,
                                   /*pack_planes=*/mode_ != Mode::kExactCost);
}

std::string MacroMvmEngine::name() const {
  return mode_ == Mode::kAnalog ? "macro-analog" : "macro-exact-cost";
}

void MacroMvmEngine::mvm_batch(const std::int8_t* w, int m, int k,
                               const std::uint8_t* x, int p, std::int32_t* y,
                               MvmSession& session) const {
  YOLOC_CHECK(m > 0 && k > 0 && p > 0, "macro engine: bad MVM shape");
  YOLOC_CHECK(session.stats != nullptr,
              "macro engine: session must carry run stats");
  YOLOC_CHECK(mode_ != Mode::kAnalog || session.noise != nullptr,
              "macro engine: analog mode needs session noise keys");
  MacroRunStats& stats = *session.stats;

  // Columns are image-major: column col belongs to image col / pixels
  // and is that image's output pixel col % pixels.
  const std::uint64_t* image_keys = nullptr;
  int pixels = p;
  std::uint64_t layer = 0;
  if (mode_ == Mode::kAnalog) {
    NoiseKeys& noise = *session.noise;
    const int images = static_cast<int>(noise.images.size());
    YOLOC_CHECK(images >= 1 && p % images == 0,
                "macro engine: MVM columns do not split over the session's "
                "images");
    image_keys = noise.images.data();
    pixels = p / images;
    layer = noise.calls++;
  }
  const MacroKind kind = macro_->config().kind;
  const auto noise_key = [&](int tile, int col) {
    return mvm_noise_key(image_keys[col / pixels], kind, layer, tile,
                         col % pixels);
  };

  for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) y[i] = 0;

  // Tiling buffers come from the session scratch when available so the
  // serve-time hot loop stops allocating per layer.
  MvmScratch local_scratch;
  MvmScratch& scratch =
      session.scratch != nullptr ? *session.scratch : local_scratch;
  std::vector<std::uint8_t>& x_chunk = scratch.x_chunk;
  std::vector<std::int32_t>& y_partial = scratch.y_partial;
  x_chunk.resize(static_cast<std::size_t>(macro_->config().geometry.rows));
  y_partial.resize(static_cast<std::size_t>(m));

  // Weight bit-planes were expanded once at deploy time (or on first
  // touch); per column only the activation vector moves. Partial sums of
  // the row tiles accumulate digitally (the shift-add backend).
  const PackedRomWeights& pw = packed(w, m, k);
  for (int tile = 0; tile < pw.tile_count(); ++tile) {
    const PackedRomWeights::Tile& t = pw.tile(tile);
    for (int col = 0; col < p; ++col) {
      for (int i = 0; i < t.k_size; ++i) {
        x_chunk[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(t.k0 + i) * p + col];
      }
      if (mode_ == Mode::kAnalog) {
        macro_->mvm_packed(pw, tile, x_chunk.data(), y_partial.data(),
                           noise_key(tile, col), stats);
      } else {
        macro_->mvm_packed_exact_cost(pw, tile, w, x_chunk.data(),
                                      y_partial.data(), stats);
      }
      for (int j = 0; j < m; ++j) {
        y[static_cast<std::size_t>(j) * p + col] +=
            y_partial[static_cast<std::size_t>(j)];
      }
    }
  }
}

}  // namespace yoloc
