#include "macro/fault_model.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace yoloc {

namespace {

// Fault stream ids: distinct fault classes draw from disjoint hash
// streams so e.g. raising the stuck-at-one rate never moves the
// stuck-at-zero pattern.
constexpr std::uint64_t kStreamStuckZero = 1;
constexpr std::uint64_t kStreamStuckOne = 2;
constexpr std::uint64_t kStreamFlip = 3;
constexpr std::uint64_t kStreamAdcOffset = 4;
constexpr std::uint64_t kStreamAdcGain = 5;

/// Uniform double in [0, 1) from a hash value (53 mantissa bits).
double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultModel::FaultModel(const FaultModelConfig& config, std::uint64_t salt,
                       int rows)
    : config_(config), salt_(salt), rows_(rows),
      active_(config.start_active) {
  YOLOC_CHECK(rows_ >= 1 && rows_ <= 128,
              "fault model: rows out of [1, 128]");
}

RowMask FaultModel::bernoulli_mask(std::uint64_t stream, int j, int b, int t,
                                   double rate) const {
  RowMask mask;
  if (rate <= 0.0) return mask;
  std::uint64_t h = hash_chain(config_.seed, salt_);
  h = hash_chain(h, stream);
  h = hash_chain(h, static_cast<std::uint64_t>(j));
  h = hash_chain(h, static_cast<std::uint64_t>(b));
  h = hash_chain(h, static_cast<std::uint64_t>(t));
  for (int i = 0; i < rows_; ++i) {
    if (hash01(hash_chain(h, static_cast<std::uint64_t>(i))) < rate) {
      mask.set(i);
    }
  }
  return mask;
}

FaultModel::PlaneFaults FaultModel::plane(int j, int b) const {
  PlaneFaults f;
  f.force_one = bernoulli_mask(kStreamStuckOne, j, b, 0,
                               config_.stuck_at_one_rate);
  f.force_zero = bernoulli_mask(kStreamStuckZero, j, b, 0,
                                config_.stuck_at_zero_rate);
  return f;
}

RowMask FaultModel::transient_flips(int j, int b, int t) const {
  return bernoulli_mask(kStreamFlip, j, b, t, config_.transient_flip_rate);
}

AdcDrift FaultModel::adc_drift(int j, int b) const {
  AdcDrift drift;
  if (config_.adc_gain_max > 0.0) {
    std::uint64_t h = hash_chain(config_.seed, salt_);
    h = hash_chain(h, kStreamAdcGain);
    h = hash_chain(h, static_cast<std::uint64_t>(j));
    h = hash_chain(h, static_cast<std::uint64_t>(b));
    drift.gain = 1.0 + (2.0 * hash01(h) - 1.0) * config_.adc_gain_max;
  }
  if (config_.adc_offset_max > 0.0) {
    std::uint64_t h = hash_chain(config_.seed, salt_);
    h = hash_chain(h, kStreamAdcOffset);
    h = hash_chain(h, static_cast<std::uint64_t>(j));
    h = hash_chain(h, static_cast<std::uint64_t>(b));
    drift.offset_counts = (2.0 * hash01(h) - 1.0) * config_.adc_offset_max;
  }
  return drift;
}

std::uint64_t FaultModel::stuck_cell_count(int m_cols, int weight_bits) const {
  std::uint64_t total = 0;
  for (int j = 0; j < m_cols; ++j) {
    for (int b = 0; b < weight_bits; ++b) {
      const PlaneFaults f = plane(j, b);
      // force_zero wins on overlap, so count the union, not the sum.
      RowMask u = f.force_one;
      u.or_with(f.force_zero);
      total += static_cast<std::uint64_t>(u.count());
    }
  }
  return total;
}

}  // namespace yoloc
