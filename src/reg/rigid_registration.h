// Rigid registration by maximization of mutual information (paper §2 /
// ref. [20]): a multiresolution Powell-style optimizer over the 6 rigid
// parameters. "This method computes a global alignment accounting for
// positioning differences in the scan coordinates but does not attempt to
// correct for nonrigid deformation" — the nonrigid residual is what the
// biomechanical stage then explains.
#pragma once

#include <vector>

#include "image/image3d.h"
#include "image/transform.h"
#include "reg/mutual_information.h"

namespace neuro::reg {

/// Similarity metric driving the optimizer. The paper uses MI; SSD is the
/// mono-modality baseline, provided for comparison experiments.
enum class MetricKind { kMutualInformation, kMeanSquaredDifference };

struct RigidRegistrationConfig {
  MiConfig mi;
  MetricKind metric = MetricKind::kMutualInformation;
  /// Gaussian pre-smoothing (voxels) applied to both images before the
  /// metric. Suppresses interpolation-induced MI inflation: on noisy images,
  /// off-grid (rotated) sampling smooths the noise and spuriously raises MI,
  /// which otherwise rewards phantom rotations. 0 disables.
  double metric_smoothing_sigma = 1.0;
  int pyramid_levels = 2;        ///< 1 = full resolution only
  int powell_iterations = 4;     ///< sweeps over the 6-direction set
  double initial_rot_step = 0.03;   ///< rad; halved per pyramid level refinement
  double initial_trans_step = 4.0;  ///< physical units (mm)
  double tolerance = 1e-4;       ///< stop when a sweep improves MI by less
};

struct RigidRegistrationResult {
  RigidTransform transform;   ///< maps fixed-space points into moving space
  double mutual_information = 0.0;
  int metric_evaluations = 0;     ///< similarity evaluations, all levels
  std::vector<double> level_mi;   ///< best MI per pyramid level (coarse→fine)
  std::vector<int> level_evals;   ///< evaluations per pyramid level (coarse→fine)
};

/// Downsamples an image by 2 along each axis (2x2x2 block mean); spacing is
/// doubled so physical geometry is preserved. Odd trailing samples fold into
/// the last block.
ImageF downsample2(const ImageF& img);

/// Finds the rigid transform maximizing MI(fixed, moving ∘ T), starting from
/// `initial`. The rotation center is fixed to the center of the fixed volume.
RigidRegistrationResult register_rigid_mi(const ImageF& fixed, const ImageF& moving,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial = {});

}  // namespace neuro::reg
