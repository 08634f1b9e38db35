#include "macro/read_code_table.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace yoloc {

namespace {

/// Probability 1 in threshold units (63-bit draws).
constexpr std::uint64_t kOne = 1ull << 63;
/// Clamp mass below which the closed-form Gaussian CDF is used.
constexpr double kClampMassFloor = 1e-20;
constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

double phi(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }

/// Threshold (in 2^-63 units) of a probability given as both of its
/// tails; the smaller one is used, so a threshold near 1 keeps the
/// resolution of its tail.
std::uint64_t threshold(double p_below, double p_above) {
  if (p_below <= 0.5) {
    return static_cast<std::uint64_t>(std::llround(std::ldexp(p_below, 63)));
  }
  return kOne -
         static_cast<std::uint64_t>(std::llround(std::ldexp(p_above, 63)));
}

/// Gaussian X ~ N(mean, sigma^2): threshold of P(X < y).
std::uint64_t gaussian_threshold(double y, double mean, double sigma) {
  const double z = (y - mean) / sigma;
  return threshold(phi(z), phi(-z));
}

/// Threshold of P(code <= k) = P(X < k + 1/2) for a read of `c` ON cells
/// (X as in the header), worked in volts: y bounds the discharge minus
/// the ADC noise.
std::uint64_t code_threshold(const CimArrayModel::ReadChainConsts& rc, int c,
                             int k) {
  const double y = (k + 0.5) * rc.lsb;
  const double mean = c * rc.delta_v;  // unclamped discharge [V]
  const double s1 =
      rc.sigma_cell * std::sqrt(static_cast<double>(c)) * rc.delta_v;
  const double sv = rc.noise_sigma_v;
  const double range = rc.bl_range;
  if (s1 == 0.0) {
    // Fixed discharge, ADC noise only (callers skip the noise-free case).
    return gaussian_threshold(y, std::min(mean, range), sv);
  }
  const double a = -mean / s1;           // z1 below: count clamps at 0
  const double b = (range - mean) / s1;  // z1 above: bitline at its floor
  if (phi(a) + phi(-b) < kClampMassFloor) {
    return gaussian_threshold(y, mean, std::hypot(s1, sv));
  }
  // The clamps matter: condition on z1. P(d - sv*z2 < y) for discharge d:
  const auto noise_below = [&](double d) {
    if (sv > 0.0) return phi((y - d) / sv);
    return d < y ? 1.0 : 0.0;
  };
  double below = phi(a) * noise_below(0.0) + phi(-b) * noise_below(range);
  if (sv == 0.0) {
    below += std::max(0.0, phi(std::min(b, (y - mean) / s1)) - phi(a));
  } else {
    // Simpson over the unclamped z1 range; |z1| > 9 carries < 2^-63.
    const double lo = std::max(a, -9.0);
    const double hi = std::min(b, 9.0);
    if (hi > lo) {
      const double step = std::min(0.02, 0.25 * sv / s1);
      int n = static_cast<int>(std::ceil((hi - lo) / step));
      n = std::clamp(n + (n & 1), 2, 200000);
      const double h = (hi - lo) / n;
      double sum = 0.0;
      for (int i = 0; i <= n; ++i) {
        const double z = lo + i * h;
        const double w = (i == 0 || i == n) ? 1.0 : ((i & 1) ? 4.0 : 2.0);
        sum += w * kInvSqrt2Pi * std::exp(-0.5 * z * z) *
               noise_below(mean + s1 * z);
      }
      below += sum * h / 3.0;
    }
  }
  below = std::clamp(below, 0.0, 1.0);
  return threshold(below, 1.0 - below);
}

}  // namespace

ReadCodeTable::ReadCodeTable(const CimArrayModel& array)
    : max_count_(array.group_size()),
      stride_((array.group_size() + 16) / 16 * 16) {
  const CimArrayModel::ReadChainConsts rc = array.read_chain_consts();
  const int top = rc.levels - 1;
  const std::size_t counts = static_cast<std::size_t>(max_count_) + 1;
  lowest_.resize(static_cast<std::size_t>(stride_));
  std::vector<std::vector<std::uint64_t>> rows(counts);
  for (int c = 0; c <= max_count_; ++c) {
    const int ideal =
        array.adc().quantize_ideal(array.bitline().voltage_for_count(c));
    lowest_[static_cast<std::size_t>(c)] = ideal;
    const bool mismatch = rc.sigma_cell > 0.0 && c > 0;
    if (!mismatch && rc.noise_sigma_v == 0.0) continue;  // deterministic
    // Widen from the ideal code while the next code still has mass.
    std::vector<std::uint64_t> below;  // thresholds under the ideal code
    int lo = ideal;
    while (lo > 0) {
      const std::uint64_t t = code_threshold(rc, c, lo - 1);
      if (t == 0) break;
      below.push_back(t);
      --lo;
    }
    std::vector<std::uint64_t>& row = rows[static_cast<std::size_t>(c)];
    row.assign(below.rbegin(), below.rend());
    int hi = ideal;
    while (hi < top) {
      const std::uint64_t t = code_threshold(rc, c, hi);
      if (t == kOne) break;
      row.push_back(t);
      ++hi;
    }
    lowest_[static_cast<std::size_t>(c)] = lo;
    width_ = std::max(width_, hi - lo);
  }
  thresholds_.assign(static_cast<std::size_t>(width_) * stride_, kOne);
  for (std::size_t c = 0; c < counts; ++c) {
    for (std::size_t i = 0; i < rows[c].size(); ++i) {
      thresholds_[i * static_cast<std::size_t>(stride_) + c] = rows[c][i];
    }
  }
}

double ReadCodeTable::probability(int count, int k) const {
  YOLOC_CHECK(count >= 0 && count <= max_count_,
              "read code table: count out of range");
  const int i = k - lowest_[static_cast<std::size_t>(count)];
  if (i < 0 || i > width_) return 0.0;
  const auto at = [&](int column) {
    return thresholds_[static_cast<std::size_t>(column) * stride_ +
                       static_cast<std::size_t>(count)];
  };
  const std::uint64_t upper = i < width_ ? at(i) : kOne;
  const std::uint64_t lower = i > 0 ? at(i - 1) : 0;
  return std::ldexp(static_cast<double>(upper - lower), -63);
}

}  // namespace yoloc
