#include "reg/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"

namespace neuro::reg {

JointHistogram::JointHistogram(int bins, double fixed_lo, double fixed_hi,
                               double moving_lo, double moving_hi)
    : bins_(bins),
      fixed_lo_(fixed_lo),
      fixed_hi_(fixed_hi),
      moving_lo_(moving_lo),
      moving_hi_(moving_hi),
      joint_(static_cast<std::size_t>(bins) * static_cast<std::size_t>(bins), 0.0) {
  NEURO_REQUIRE(bins >= 2, "JointHistogram: need at least 2 bins");
  NEURO_REQUIRE(fixed_hi > fixed_lo && moving_hi > moving_lo,
                "JointHistogram: empty intensity range");
}

int JointHistogram::bin(double v, double lo, double hi) const {
  const double t = (v - lo) / (hi - lo);
  int b = static_cast<int>(t * bins_);
  return std::clamp(b, 0, bins_ - 1);
}

void JointHistogram::add_binned(int bf, double moving_value) {
  const int bm = bin(moving_value, moving_lo_, moving_hi_);
  joint_[static_cast<std::size_t>(bf) * static_cast<std::size_t>(bins_) +
         static_cast<std::size_t>(bm)] += 1.0;
  ++samples_;
}

void JointHistogram::clear() {
  std::fill(joint_.begin(), joint_.end(), 0.0);
  samples_ = 0;
}

namespace {
double entropy_of(const std::vector<double>& p, double total) {
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const double c : p) {
    if (c > 0.0) {
      const double q = c / total;
      h -= q * std::log(q);
    }
  }
  return h;
}
}  // namespace

double JointHistogram::fixed_entropy() const {
  std::vector<double> marg(static_cast<std::size_t>(bins_), 0.0);
  for (int f = 0; f < bins_; ++f) {
    for (int m = 0; m < bins_; ++m) {
      marg[static_cast<std::size_t>(f)] +=
          joint_[static_cast<std::size_t>(f) * static_cast<std::size_t>(bins_) +
                 static_cast<std::size_t>(m)];
    }
  }
  return entropy_of(marg, static_cast<double>(samples_));
}

double JointHistogram::moving_entropy() const {
  std::vector<double> marg(static_cast<std::size_t>(bins_), 0.0);
  for (int f = 0; f < bins_; ++f) {
    for (int m = 0; m < bins_; ++m) {
      marg[static_cast<std::size_t>(m)] +=
          joint_[static_cast<std::size_t>(f) * static_cast<std::size_t>(bins_) +
                 static_cast<std::size_t>(m)];
    }
  }
  return entropy_of(marg, static_cast<double>(samples_));
}

double JointHistogram::joint_entropy() const {
  return entropy_of(joint_, static_cast<double>(samples_));
}

std::pair<double, double> intensity_range(const ImageF& img) {
  double lo = 1e300, hi = -1e300;
  for (const float v : img.data()) {
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  if (hi <= lo) hi = lo + 1.0;
  return {lo, hi};
}

namespace {
JointHistogram histogram_for(const ImageF& fixed, const ImageF& moving, int bins) {
  const auto [flo, fhi] = intensity_range(fixed);
  const auto [mlo, mhi] = intensity_range(moving);
  return JointHistogram(bins, flo, fhi, mlo, mhi);
}
}  // namespace

RigidMetric::RigidMetric(const ImageF& fixed, const ImageF& moving,
                         const MiConfig& config)
    : moving_(moving), hist_(histogram_for(fixed, moving, config.bins)) {
  NEURO_REQUIRE(config.sample_stride >= 1, "RigidMetric: bad sample stride");
  const IVec3 d = fixed.dims();
  const int stride = config.sample_stride;
  const auto samples = static_cast<std::size_t>((d.x + stride - 1) / stride) *
                       static_cast<std::size_t>((d.y + stride - 1) / stride) *
                       static_cast<std::size_t>((d.z + stride - 1) / stride);
  points_.reserve(samples);
  values_.reserve(samples);
  fixed_bins_.reserve(samples);
  for (int k = 0; k < d.z; k += stride) {
    for (int j = 0; j < d.y; j += stride) {
      for (int i = 0; i < d.x; i += stride) {
        points_.push_back(fixed.voxel_to_physical(i, j, k));
        values_.push_back(fixed(i, j, k));
        fixed_bins_.push_back(hist_.fixed_bin(static_cast<double>(fixed(i, j, k))));
      }
    }
  }
}

template <typename Visit>
void RigidMetric::for_each_inside(const RigidTransform& transform, Visit&& visit) const {
  const Mat3 R = transform.matrix();
  const IVec3 md = moving_.dims();
  for (std::size_t s = 0; s < points_.size(); ++s) {
    const Vec3 v = moving_.physical_to_voxel(transform.apply(R, points_[s]));
    if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
        v.z > md.z - 1) {
      continue;
    }
    visit(s, sample_trilinear(moving_, v));
  }
}

double RigidMetric::mutual_information(const RigidTransform& transform) {
  hist_.clear();
  for_each_inside(transform, [&](std::size_t s, double moving_value) {
    hist_.add_binned(fixed_bins_[s], moving_value);
  });
  return hist_.mutual_information();
}

double RigidMetric::mean_squared_difference(const RigidTransform& transform) const {
  double sum = 0.0;
  std::size_t n = 0;
  for_each_inside(transform, [&](std::size_t s, double moving_value) {
    const double diff = static_cast<double>(values_[s]) - moving_value;
    sum += diff * diff;
    ++n;
  });
  // No overlap is the worst match, not a perfect one: the optimizer
  // maximizes −MSD and must never prefer moving the image out of view.
  return n == 0 ? std::numeric_limits<double>::infinity()
                : sum / static_cast<double>(n);
}

double mutual_information(const ImageF& fixed, const ImageF& moving,
                          const RigidTransform& transform, const MiConfig& config) {
  return RigidMetric(fixed, moving, config).mutual_information(transform);
}

double mean_squared_difference(const ImageF& fixed, const ImageF& moving,
                               const RigidTransform& transform,
                               const MiConfig& config) {
  return RigidMetric(fixed, moving, config).mean_squared_difference(transform);
}

}  // namespace neuro::reg
