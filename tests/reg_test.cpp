// Tests for mutual information and MI-based rigid registration.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/check.h"
#include "base/rng.h"
#include "phantom/brain_phantom.h"
#include "reg/mutual_information.h"
#include "reg/rigid_registration.h"

namespace neuro::reg {
namespace {

TEST(JointHistogramTest, EntropiesOfUniformAndDelta) {
  JointHistogram h(4, 0, 4, 0, 4);
  // Four samples on the diagonal, one per bin: marginals uniform, joint
  // entropy = marginal entropy ⇒ MI = H.
  for (int i = 0; i < 4; ++i) h.add(i + 0.5, i + 0.5);
  EXPECT_NEAR(h.fixed_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.moving_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.joint_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.mutual_information(), std::log(4.0), 1e-12);
}

TEST(JointHistogramTest, IndependentVariablesHaveZeroMi) {
  JointHistogram h(2, 0, 2, 0, 2);
  // All four (fixed, moving) bin combinations equally likely.
  h.add(0.5, 0.5);
  h.add(0.5, 1.5);
  h.add(1.5, 0.5);
  h.add(1.5, 1.5);
  EXPECT_NEAR(h.mutual_information(), 0.0, 1e-12);
}

TEST(JointHistogramTest, EmptyHistogramIsZeroEntropy) {
  JointHistogram h(8, 0, 1, 0, 1);
  EXPECT_DOUBLE_EQ(h.joint_entropy(), 0.0);
  EXPECT_DOUBLE_EQ(h.mutual_information(), 0.0);
}

TEST(JointHistogramTest, ClearResets) {
  JointHistogram h(4, 0, 4, 0, 4);
  h.add(1, 1);
  EXPECT_EQ(h.samples(), 1u);
  h.clear();
  EXPECT_EQ(h.samples(), 0u);
}

TEST(JointHistogramTest, OutOfRangeValuesClampToEdgeBins) {
  JointHistogram h(4, 0, 4, 0, 4);
  h.add(-100, 100);  // must not crash or index out of bounds
  EXPECT_EQ(h.samples(), 1u);
}

TEST(JointHistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(JointHistogram(1, 0, 1, 0, 1), CheckError);
  EXPECT_THROW(JointHistogram(8, 1, 1, 0, 1), CheckError);
}

ImageF structured_volume(int n, std::uint64_t seed) {
  ImageF img({n, n, n});
  Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        // Smooth structure + noise: enough content for MI to be informative.
        img(i, j, k) = static_cast<float>(
            100.0 * std::sin(0.4 * i) * std::cos(0.3 * j) + 20.0 * std::sin(0.5 * k) +
            rng.normal());
      }
    }
  }
  return img;
}

TEST(MutualInformationTest, SelfAlignmentIsMaximal) {
  const ImageF img = structured_volume(24, 1);
  MiConfig cfg;
  const double aligned = mutual_information(img, img, RigidTransform{}, cfg);
  RigidTransform shifted;
  shifted.translation = {3.0, 0.0, 0.0};
  const double misaligned = mutual_information(img, img, shifted, cfg);
  EXPECT_GT(aligned, misaligned);
}

TEST(MutualInformationTest, DecreasesMonotonicallyNearOptimum) {
  const ImageF img = structured_volume(24, 2);
  MiConfig cfg;
  double prev = mutual_information(img, img, RigidTransform{}, cfg);
  for (double t : {1.0, 2.0, 4.0}) {
    RigidTransform shifted;
    shifted.translation = {t, 0.0, 0.0};
    const double mi = mutual_information(img, img, shifted, cfg);
    EXPECT_LT(mi, prev);
    prev = mi;
  }
}

TEST(MutualInformationTest, RobustToIntensityRemapping) {
  // MI (unlike SSD) must still peak at alignment when one image's
  // intensities are nonlinearly remapped — the multi-modality property the
  // paper relies on for preop/intraop matching.
  const ImageF a = structured_volume(24, 3);
  ImageF b = a;
  for (auto& v : b.data()) v = std::tanh(v / 50.0f) * 100.0f;  // monotone remap
  MiConfig cfg;
  const double aligned = mutual_information(a, b, RigidTransform{}, cfg);
  RigidTransform shifted;
  shifted.translation = {2.5, 1.0, 0.0};
  EXPECT_GT(aligned, mutual_information(a, b, shifted, cfg));
}

TEST(IntensityRangeTest, FindsMinMax) {
  ImageF img({2, 2, 2}, 5.0f);
  img.at(0, 0, 0) = -3.0f;
  img.at(1, 1, 1) = 9.0f;
  const auto [lo, hi] = intensity_range(img);
  EXPECT_DOUBLE_EQ(lo, -3.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
}

// Reference oracles: the metric loops as first written, before RigidMetric
// hoisted their loop-invariant work. Every sample goes through
// transform.apply(p), which rebuilds the rotation, and every call rescans
// both intensity ranges and re-bins the fixed image. RigidMetric must match
// them to the bit. The MSD oracle carries the no-overlap fix (+∞, the worst
// score, instead of 0).
double reference_mi(const ImageF& fixed, const ImageF& moving,
                    const RigidTransform& transform, const MiConfig& config) {
  const auto [flo, fhi] = intensity_range(fixed);
  const auto [mlo, mhi] = intensity_range(moving);
  JointHistogram hist(config.bins, flo, fhi, mlo, mhi);
  const IVec3 d = fixed.dims();
  const IVec3 md = moving.dims();
  for (int k = 0; k < d.z; k += config.sample_stride) {
    for (int j = 0; j < d.y; j += config.sample_stride) {
      for (int i = 0; i < d.x; i += config.sample_stride) {
        const Vec3 p = fixed.voxel_to_physical(i, j, k);
        const Vec3 v = moving.physical_to_voxel(transform.apply(p));
        if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
            v.z > md.z - 1) {
          continue;
        }
        hist.add(static_cast<double>(fixed(i, j, k)), sample_trilinear(moving, v));
      }
    }
  }
  return hist.mutual_information();
}

double reference_msd(const ImageF& fixed, const ImageF& moving,
                     const RigidTransform& transform, const MiConfig& config) {
  const IVec3 d = fixed.dims();
  const IVec3 md = moving.dims();
  double sum = 0.0;
  std::size_t n = 0;
  for (int k = 0; k < d.z; k += config.sample_stride) {
    for (int j = 0; j < d.y; j += config.sample_stride) {
      for (int i = 0; i < d.x; i += config.sample_stride) {
        const Vec3 p = fixed.voxel_to_physical(i, j, k);
        const Vec3 v = moving.physical_to_voxel(transform.apply(p));
        if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
            v.z > md.z - 1) {
          continue;
        }
        const double diff =
            static_cast<double>(fixed(i, j, k)) - sample_trilinear(moving, v);
        sum += diff * diff;
        ++n;
      }
    }
  }
  return n == 0 ? std::numeric_limits<double>::infinity()
                : sum / static_cast<double>(n);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RigidMetricTest, MatchesPerSampleReferenceToTheBit) {
  // Different grids on purpose (dims, spacing, origin), so physical mapping,
  // bounds and trilinear sampling are all exercised.
  ImageF fixed({20, 22, 18}, 0.0f, {1.5, 1.5, 2.0}, {1.0, 2.0, 3.0});
  ImageF moving({24, 24, 24}, 0.0f, {1.3, 1.2, 1.4}, {-1.0, 0.5, 0.0});
  Rng noise(11);
  for (auto* img : {&fixed, &moving}) {
    const IVec3 d = img->dims();
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        for (int i = 0; i < d.x; ++i) {
          (*img)(i, j, k) = static_cast<float>(
              80.0 * std::sin(0.35 * i + 0.1 * k) * std::cos(0.25 * j) +
              5.0 * noise.normal());
        }
      }
    }
  }
  Rng rng(5);
  enum Overlap { kFull, kPartial, kNone };
  for (const Overlap overlap : {kFull, kPartial, kNone}) {
    for (int t = 0; t < 6; ++t) {
      RigidTransform tr;
      tr.center = {16.0, 17.0, 18.0};
      const double reach = overlap == kFull ? 1.5 : overlap == kPartial ? 12.0 : 400.0;
      tr.translation = {rng.uniform(-reach, reach), rng.uniform(-reach, reach),
                        rng.uniform(-reach, reach)};
      if (overlap == kNone) tr.translation[0] = 400.0;
      const double angle = overlap == kFull ? 0.02 : 0.3;
      tr.rotation = {rng.uniform(-angle, angle), rng.uniform(-angle, angle),
                     rng.uniform(-angle, angle)};
      for (const int stride : {1, 2, 3}) {
        for (const int bins : {16, 32}) {
          SCOPED_TRACE(testing::Message() << "overlap " << overlap << " t " << t
                                          << " stride " << stride << " bins " << bins);
          MiConfig cfg;
          cfg.sample_stride = stride;
          cfg.bins = bins;
          const double mi_ref = reference_mi(fixed, moving, tr, cfg);
          const double msd_ref = reference_msd(fixed, moving, tr, cfg);
          EXPECT_EQ(bits(mutual_information(fixed, moving, tr, cfg)), bits(mi_ref));
          EXPECT_EQ(bits(mean_squared_difference(fixed, moving, tr, cfg)),
                    bits(msd_ref));
          if (overlap == kNone) {
            EXPECT_EQ(mi_ref, 0.0);
            EXPECT_TRUE(std::isinf(msd_ref));
          } else {
            EXPECT_TRUE(std::isfinite(msd_ref));
          }
        }
      }
    }
  }
}

TEST(RigidMetricTest, ReusedEvaluatorMatchesFreshReference) {
  // The optimizer's pattern: one evaluator per pyramid level, evaluated many
  // times; its reused histogram must not carry state between evaluations.
  const ImageF fixed = structured_volume(20, 7);
  const ImageF moving = structured_volume(22, 8);
  MiConfig cfg;
  RigidMetric metric(fixed, moving, cfg);
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    RigidTransform tr;
    tr.center = {10.0, 10.0, 10.0};
    const double reach = t % 4 == 3 ? 300.0 : 6.0;
    tr.translation = {rng.uniform(-reach, reach), rng.uniform(-reach, reach),
                      rng.uniform(-reach, reach)};
    tr.rotation = {rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                   rng.uniform(-0.2, 0.2)};
    EXPECT_EQ(bits(metric.mutual_information(tr)),
              bits(reference_mi(fixed, moving, tr, cfg)));
    EXPECT_EQ(bits(metric.mean_squared_difference(tr)),
              bits(reference_msd(fixed, moving, tr, cfg)));
  }
}

TEST(MeanSquaredDifferenceTest, NoOverlapLosesToIdentity) {
  // Moving the image wholly out of the volume used to score MSD 0, a perfect
  // match: under MetricKind::kMeanSquaredDifference the optimizer maximizes
  // −MSD, so it must rank any real overlap above no overlap at all.
  const ImageF a = structured_volume(16, 4);
  ImageF b = a;
  Rng rng(6);
  for (auto& v : b.data()) v += static_cast<float>(3.0 * rng.normal());
  MiConfig cfg;
  RigidTransform away;
  away.translation = {1000.0, 0.0, 0.0};
  const double identity = mean_squared_difference(a, b, RigidTransform{}, cfg);
  const double outside = mean_squared_difference(a, b, away, cfg);
  EXPECT_GT(identity, 0.0);
  EXPECT_GT(-identity, -outside);
}

TEST(MeanSquaredDifferenceTest, RegistrationDoesNotStepOutOfTheVolume) {
  // A translation step wider than the volume makes the line search probe
  // transforms with no overlap at all. They must not win.
  const ImageF a = structured_volume(16, 9);
  ImageF b = a;
  Rng rng(10);
  for (auto& v : b.data()) v += static_cast<float>(3.0 * rng.normal());
  RigidRegistrationConfig rcfg;
  rcfg.metric = MetricKind::kMeanSquaredDifference;
  rcfg.pyramid_levels = 1;
  rcfg.powell_iterations = 2;
  rcfg.initial_trans_step = 40.0;
  const auto result = register_rigid_mi(a, b, rcfg);
  const auto p = result.transform.params();
  EXPECT_LT(std::abs(p[3]) + std::abs(p[4]) + std::abs(p[5]), 2.0);
  EXPECT_TRUE(std::isfinite(result.mutual_information));
}

class RigidRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(RigidRecoveryTest, RecoversKnownOffset) {
  // Build a phantom pair whose only difference is a known rigid offset (no
  // brain shift), register, and check the offset is recovered.
  phantom::PhantomConfig cfg;
  cfg.dims = {36, 36, 36};
  cfg.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0.0;
  noshift.resection_collapse_mm = 0.0;
  noshift.resect_tumor = false;

  RigidTransform truth;
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  truth.translation = {rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-4, 4)};
  truth.rotation = {rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                    rng.uniform(-0.05, 0.05)};
  const auto cas = phantom::make_case(cfg, noshift, truth);

  RigidRegistrationConfig rcfg;
  rcfg.pyramid_levels = 2;
  rcfg.powell_iterations = 6;
  const auto result = register_rigid_mi(cas.intraop, cas.preop, rcfg);

  // The registration maps intraop→preop points; ground truth: intraop voxel y
  // sees preop anatomy at R⁻¹(y). Check agreement at scattered points.
  double worst = 0.0;
  for (int t = 0; t < 30; ++t) {
    const Vec3 p{rng.uniform(40, 90), rng.uniform(40, 90), rng.uniform(40, 90)};
    worst = std::max(worst,
                     norm(result.transform.apply(p) - truth.apply_inverse(p)));
  }
  EXPECT_LT(worst, 3.0) << "registration error (mm), seed " << seed;
  EXPECT_GT(result.metric_evaluations, 0);
  EXPECT_EQ(result.level_mi.size(), 2u);
  ASSERT_EQ(result.level_evals.size(), 2u);
  EXPECT_GT(result.level_evals[0], 0);
  EXPECT_GT(result.level_evals[1], 0);
  EXPECT_EQ(result.level_evals[0] + result.level_evals[1], result.metric_evaluations);
}

INSTANTIATE_TEST_SUITE_P(OffsetSweep, RigidRecoveryTest, ::testing::Range(0, 4));

TEST(RigidRegistrationTest, IdentityCaseStaysPut) {
  phantom::PhantomConfig cfg;
  cfg.dims = {32, 32, 32};
  cfg.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0.0;
  noshift.resection_collapse_mm = 0.0;
  noshift.resect_tumor = false;
  const auto cas = phantom::make_case(cfg, noshift);
  RigidRegistrationConfig rcfg;
  rcfg.pyramid_levels = 1;
  rcfg.powell_iterations = 2;
  const auto result = register_rigid_mi(cas.intraop, cas.preop, rcfg);
  const auto p = result.transform.params();
  EXPECT_LT(std::abs(p[3]) + std::abs(p[4]) + std::abs(p[5]), 2.0);
  EXPECT_LT(std::abs(p[0]) + std::abs(p[1]) + std::abs(p[2]), 0.05);
}

}  // namespace
}  // namespace neuro::reg
