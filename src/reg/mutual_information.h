// Mutual-information image similarity (paper's rigid-registration metric,
// after Wells et al., its ref. [20]).
//
// MI(A,B) = H(A) + H(B) - H(A,B) estimated from a joint intensity histogram
// over sampled fixed-image voxels mapped into the moving image. MI is the
// metric of choice here because the preoperative and intraoperative scans
// have globally consistent but not identical intensity characteristics
// (scanner drift, different noise realizations).
#pragma once

#include "image/image3d.h"
#include "image/transform.h"

namespace neuro::reg {

struct MiConfig {
  int bins = 32;
  int sample_stride = 2;  ///< use every stride-th voxel along each axis
};

/// Joint histogram between a fixed and a transformed moving image.
class JointHistogram {
 public:
  JointHistogram(int bins, double fixed_lo, double fixed_hi, double moving_lo,
                 double moving_hi);

  void add(double fixed_value, double moving_value) {
    add_binned(fixed_bin(fixed_value), moving_value);
  }
  /// add() with the fixed value already binned, for callers that bin a fixed
  /// sample set once and reuse it across many histograms.
  void add_binned(int fixed_bin, double moving_value);
  [[nodiscard]] int fixed_bin(double fixed_value) const {
    return bin(fixed_value, fixed_lo_, fixed_hi_);
  }
  void clear();

  [[nodiscard]] std::size_t samples() const { return samples_; }

  /// Shannon entropies (nats). Empty histogram ⇒ all zero.
  [[nodiscard]] double fixed_entropy() const;
  [[nodiscard]] double moving_entropy() const;
  [[nodiscard]] double joint_entropy() const;
  [[nodiscard]] double mutual_information() const {
    return fixed_entropy() + moving_entropy() - joint_entropy();
  }

 private:
  [[nodiscard]] int bin(double v, double lo, double hi) const;

  int bins_;
  double fixed_lo_, fixed_hi_, moving_lo_, moving_hi_;
  std::vector<double> joint_;  // bins x bins, row = fixed bin
  std::size_t samples_ = 0;
};

/// Intensity range (min, max) of an image.
std::pair<double, double> intensity_range(const ImageF& img);

/// Similarity of a fixed image and a rigidly transformed moving image, with
/// the work that does not depend on the transform done once at construction:
/// both intensity ranges, and the position, intensity and fixed-image
/// histogram bin of every sampled fixed voxel (every `sample_stride`-th voxel
/// along each axis). An evaluation then only maps the samples through the
/// transform, so an optimizer builds one per image pair and evaluates it many
/// times. Samples that map outside the moving volume are skipped. Holds
/// references to both images, which must outlive it.
class RigidMetric {
 public:
  RigidMetric(const ImageF& fixed, const ImageF& moving, const MiConfig& config);

  /// MI of `fixed` vs `moving ∘ transform` (transform maps fixed-space
  /// physical points into moving space).
  [[nodiscard]] double mutual_information(const RigidTransform& transform);

  /// Mean squared intensity difference over the same samples; +∞ (the worst
  /// score) when no sample lands inside the moving volume.
  [[nodiscard]] double mean_squared_difference(const RigidTransform& transform) const;

 private:
  /// Calls visit(s, moving value) for every sample s inside the moving volume.
  template <typename Visit>
  void for_each_inside(const RigidTransform& transform, Visit&& visit) const;

  const ImageF& moving_;
  std::vector<Vec3> points_;    ///< physical position of each fixed sample
  std::vector<float> values_;   ///< fixed intensity of each sample
  std::vector<int> fixed_bins_;  ///< histogram bin of each fixed intensity
  JointHistogram hist_;         ///< reused across evaluations
};

/// One-shot RigidMetric::mutual_information.
double mutual_information(const ImageF& fixed, const ImageF& moving,
                          const RigidTransform& transform, const MiConfig& config);

/// One-shot RigidMetric::mean_squared_difference: the classical
/// mono-modality metric, exposed as the MI baseline. Unlike MI it degrades
/// under the scan-to-scan intensity drift / remapping that intraoperative
/// imaging exhibits — the reason the paper registers with MI.
double mean_squared_difference(const ImageF& fixed, const ImageF& moving,
                               const RigidTransform& transform,
                               const MiConfig& config);

}  // namespace neuro::reg
