#include "reg/rigid_registration.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/check.h"
#include "image/filters.h"

namespace neuro::reg {

ImageF downsample2(const ImageF& img) {
  const IVec3 d = img.dims();
  const IVec3 nd{std::max(1, d.x / 2), std::max(1, d.y / 2), std::max(1, d.z / 2)};
  ImageF out(nd, 0.0f,
             {img.spacing().x * d.x / nd.x, img.spacing().y * d.y / nd.y,
              img.spacing().z * d.z / nd.z},
             img.origin());
  for (int k = 0; k < nd.z; ++k) {
    for (int j = 0; j < nd.y; ++j) {
      for (int i = 0; i < nd.x; ++i) {
        // Average the source block (folding any odd remainder into the last).
        const int i1 = (i + 1 == nd.x) ? d.x : 2 * (i + 1);
        const int j1 = (j + 1 == nd.y) ? d.y : 2 * (j + 1);
        const int k1 = (k + 1 == nd.z) ? d.z : 2 * (k + 1);
        double acc = 0.0;
        int n = 0;
        for (int kk = 2 * k; kk < k1; ++kk) {
          for (int jj = 2 * j; jj < j1; ++jj) {
            for (int ii = 2 * i; ii < i1; ++ii) {
              acc += static_cast<double>(img(ii, jj, kk));
              ++n;
            }
          }
        }
        out(i, j, k) = static_cast<float>(acc / n);
      }
    }
  }
  return out;
}

namespace {

struct LineMax {
  double t;      ///< best step found
  double value;  ///< f(t)
};

/// Golden-section line search for the maximum of f after a simple expansion
/// bracketing around 0 with step `step`. `f_at_zero` is f(0), which the
/// caller already holds; the result carries f at the returned step, so
/// neither point is evaluated twice.
template <typename F>
LineMax line_search_max(F&& f, double f_at_zero, double step) {
  // Bracket: evaluate at -step, 0, +step, expand toward the better side.
  double t0 = -step, t1 = 0.0, t2 = step;
  double f0 = f(t0), f1 = f_at_zero, f2 = f(t2);
  int guard = 0;
  while (guard++ < 12) {
    if (f1 >= f0 && f1 >= f2) break;  // bracketed
    if (f0 > f2) {
      t2 = t1; f2 = f1;
      t1 = t0; f1 = f0;
      t0 = t1 - 2.0 * (t2 - t1);
      f0 = f(t0);
    } else {
      t0 = t1; f0 = f1;
      t1 = t2; f1 = f2;
      t2 = t1 + 2.0 * (t1 - t0);
      f2 = f(t2);
    }
  }
  // Golden-section refinement on [t0, t2].
  constexpr double kInvPhi = 0.6180339887498949;
  double a = t0, b = t2;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double fx1 = f(x1), fx2 = f(x2);
  for (int it = 0; it < 18 && (b - a) > 1e-6 + 1e-3 * step; ++it) {
    if (fx1 >= fx2) {
      b = x2;
      x2 = x1; fx2 = fx1;
      x1 = b - kInvPhi * (b - a);
      fx1 = f(x1);
    } else {
      a = x1;
      x1 = x2; fx1 = fx2;
      x2 = a + kInvPhi * (b - a);
      fx2 = f(x2);
    }
  }
  return fx1 >= fx2 ? LineMax{x1, fx1} : LineMax{x2, fx2};
}

}  // namespace

RigidRegistrationResult register_rigid_mi(const ImageF& fixed, const ImageF& moving,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial) {
  NEURO_REQUIRE(config.pyramid_levels >= 1, "register_rigid_mi: need >= 1 level");

  // Build pyramids, coarsest last.
  std::vector<ImageF> fixed_pyr{
      config.metric_smoothing_sigma > 0.0
          ? gaussian_smooth(fixed, config.metric_smoothing_sigma)
          : fixed};
  std::vector<ImageF> moving_pyr{
      config.metric_smoothing_sigma > 0.0
          ? gaussian_smooth(moving, config.metric_smoothing_sigma)
          : moving};
  for (int l = 1; l < config.pyramid_levels; ++l) {
    fixed_pyr.push_back(downsample2(fixed_pyr.back()));
    moving_pyr.push_back(downsample2(moving_pyr.back()));
  }

  const IVec3 fd = fixed.dims();
  const Vec3 center = fixed.voxel_to_physical(
      Vec3{(fd.x - 1) / 2.0, (fd.y - 1) / 2.0, (fd.z - 1) / 2.0});

  RigidRegistrationResult result;
  std::array<double, 6> params = initial.params();
  int evals = 0;

  for (int l = config.pyramid_levels - 1; l >= 0; --l) {
    const int evals_before = evals;
    RigidMetric similarity(fixed_pyr[static_cast<std::size_t>(l)],
                           moving_pyr[static_cast<std::size_t>(l)], config.mi);
    auto metric = [&](const std::array<double, 6>& p) {
      ++evals;
      const RigidTransform t = RigidTransform::from_params(p, center);
      // The optimizer maximizes; SSD enters negated.
      return config.metric == MetricKind::kMutualInformation
                 ? similarity.mutual_information(t)
                 : -similarity.mean_squared_difference(t);
    };

    // Step sizes shrink on finer levels where the coarse solve got us close.
    const double scale = std::pow(0.5, config.pyramid_levels - 1 - l);
    double best = metric(params);  // always metric(params): the line searches' f(0)
    for (int sweep = 0; sweep < config.powell_iterations; ++sweep) {
      const double before = best;
      for (int dim = 0; dim < 6; ++dim) {
        const double step = (dim < 3 ? config.initial_rot_step
                                     : config.initial_trans_step) *
                            scale;
        auto line = [&](double t) {
          std::array<double, 6> p = params;
          p[static_cast<std::size_t>(dim)] += t;
          return metric(p);
        };
        const LineMax found = line_search_max(line, best, step);
        if (found.value > best) {
          best = found.value;
          params[static_cast<std::size_t>(dim)] += found.t;
        }
      }
      if (best - before < config.tolerance) break;
    }
    result.level_mi.push_back(best);
    result.level_evals.push_back(evals - evals_before);
    result.mutual_information = best;
  }

  result.transform = RigidTransform::from_params(params, center);
  result.metric_evaluations = evals;
  return result;
}

}  // namespace neuro::reg
