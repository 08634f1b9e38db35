#pragma once
// Tabulated analog read: the ADC code distribution of one column read as
// a function of its exact ON-cell count.
//
// CimArrayModel::read_count draws two Gaussians per read: cell current
// mismatch z1 and ADC input noise z2. The ADC is anchored at the
// precharge voltage (v_hi == v_precharge) with lsb = counts_per_code *
// delta_v, so the chain reduces to
//   code = clamp(round(X), 0, levels - 1)
//   X    = (min(max(c + s1*z1, 0) * delta_v, bl_range) - sv*z2) / lsb
// with s1 = sigma_cell * sqrt(c) and sv = the ADC noise sigma. Between
// its two clamps X is linear in z1 and z2, hence Gaussian with mean
// c*delta_v/lsb and variance ((s1*delta_v)^2 + sv^2)/lsb^2, and
// P(code <= k | c) = P(X < k + 1/2) is one Phi evaluation. Where the
// clamps carry probability mass above 1e-20 (large mismatch on few
// cells) the same CDF is integrated over z1 numerically instead.
//
// Per count the table keeps the codes of non-zero probability as
// cumulative thresholds at 2^-63 resolution, so one 63-bit uniform picks
// the code with width() branch-free compares. A noise-free chain has
// width 0: the code is the ideal ADC code of the count.
//
// Both arrays are laid out per threshold column, count-minor, and padded
// to stride() counts (a multiple of 16), so a vector kernel can hold the
// rows of counts 0-15 in registers and look them up by permutation.

#include <cstdint>
#include <vector>

#include "circuit/cim_array.hpp"

namespace yoloc {

class ReadCodeTable {
 public:
  /// Tabulates counts 0..array.group_size().
  explicit ReadCodeTable(const CimArrayModel& array);

  /// ADC code of a read of `count` ON cells (0 <= count <= max_count())
  /// given a uniform 64-bit draw `u`.
  [[nodiscard]] int code(int count, std::uint64_t u) const {
    const std::uint64_t v = u >> 1;
    const std::uint64_t* t = thresholds_.data() + count;
    int c = lowest_[static_cast<std::size_t>(count)];
    for (int i = 0; i < width_; ++i) {
      c += v >= t[static_cast<std::size_t>(i) * stride_] ? 1 : 0;
    }
    return c;
  }

  /// Tabulated P(code == k | count).
  [[nodiscard]] double probability(int count, int k) const;

  [[nodiscard]] int max_count() const { return max_count_; }
  /// Threshold compares per read.
  [[nodiscard]] int width() const { return width_; }

  /// Raw arrays for vector kernels that evaluate code() for several
  /// counts at once: lowest_codes()[count] and
  /// thresholds()[i * stride() + count] for 0 <= i < width(). Entries
  /// past max_count() up to stride() are padding.
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] const int* lowest_codes() const { return lowest_.data(); }
  [[nodiscard]] const std::uint64_t* thresholds() const {
    return thresholds_.data();
  }

 private:
  int max_count_ = 0;
  int width_ = 0;
  /// max_count + 1 rounded up to a multiple of 16.
  int stride_ = 0;
  /// Per count: the lowest code of non-zero probability.
  std::vector<int> lowest_;
  /// width x stride cumulative thresholds, column i of count c at
  /// i * stride + c; 2^63 pads counts with fewer than width thresholds
  /// (a 63-bit draw never reaches it).
  std::vector<std::uint64_t> thresholds_;
};

}  // namespace yoloc
