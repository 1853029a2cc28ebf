// Tests for the k-NN tissue classification stack and the intraoperative
// segmentation driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "base/check.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"
#include "seg/intraop.h"
#include "seg/knn.h"

namespace neuro::seg {
namespace {

using phantom::Tissue;

TEST(FeatureStackTest, StoresChannelsWithWeights) {
  FeatureStack stack;
  stack.add_channel(ImageF({2, 2, 2}, 3.0f), 2.0);
  stack.add_channel(ImageF({2, 2, 2}, 5.0f), 1.0);
  EXPECT_EQ(stack.channels(), 2u);
  std::vector<double> f;
  stack.feature_at(0, 0, 0, f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], 6.0);  // weighted
  EXPECT_DOUBLE_EQ(f[1], 5.0);
}

TEST(FeatureStackTest, RejectsMismatchedDims) {
  FeatureStack stack;
  stack.add_channel(ImageF({2, 2, 2}));
  EXPECT_THROW(stack.add_channel(ImageF({3, 3, 3})), CheckError);
  EXPECT_THROW(stack.add_channel(ImageF({2, 2, 2}), 0.0), CheckError);
}

FeatureStack two_class_stack(ImageL& truth) {
  // Class 1 on the left half (intensity 10), class 2 on the right (intensity
  // 100) — trivially separable by the single intensity channel.
  truth = ImageL({8, 8, 8}, 1);
  ImageF intensity({8, 8, 8}, 10.0f);
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 4; i < 8; ++i) {
        truth(i, j, k) = 2;
        intensity(i, j, k) = 100.0f;
      }
    }
  }
  FeatureStack stack;
  stack.add_channel(std::move(intensity));
  return stack;
}

TEST(PrototypeTest, SelectsPerClassCounts) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 10, rng);
  int c1 = 0, c2 = 0;
  for (const auto& p : protos) {
    c1 += p.label == 1;
    c2 += p.label == 2;
  }
  EXPECT_EQ(c1, 10);
  EXPECT_EQ(c2, 10);
}

TEST(PrototypeTest, DeterministicForSeed) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng1(5), rng2(5);
  const auto a = select_prototypes(truth, stack, 5, rng1);
  const auto b = select_prototypes(truth, stack, 5, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].voxel, b[i].voxel);
  }
}

TEST(PrototypeTest, ExcludeSkipsClasses) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 5, rng, {2});
  for (const auto& p : protos) EXPECT_NE(p.label, 2);
  EXPECT_EQ(protos.size(), 5u);
}

TEST(PrototypeTest, CapsAtClassPopulation) {
  ImageL truth({3, 1, 1}, 1);
  truth.at(0, 0, 0) = 2;  // class 2 has one voxel
  FeatureStack stack;
  stack.add_channel(ImageF({3, 1, 1}, 1.0f));
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 10, rng);
  int c2 = 0;
  for (const auto& p : protos) c2 += p.label == 2;
  EXPECT_EQ(c2, 1);
}

TEST(PrototypeTest, RefreshRereadsFeaturesAtRecordedLocations) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  auto protos = select_prototypes(truth, stack, 3, rng);
  // New scan with shifted intensities; locations persist.
  FeatureStack stack2;
  stack2.add_channel(ImageF({8, 8, 8}, 42.0f));
  refresh_prototypes(protos, stack2);
  for (const auto& p : protos) {
    EXPECT_DOUBLE_EQ(p.features.at(0), 42.0);
  }
}

TEST(KnnTest, ClassifiesSeparableClasses) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(2);
  KnnClassifier knn(select_prototypes(truth, stack, 20, rng), 3);
  EXPECT_EQ(knn.classify({15.0}), 1);
  EXPECT_EQ(knn.classify({90.0}), 2);
}

TEST(KnnTest, KOneIsNearestNeighbour) {
  std::vector<Prototype> protos(2);
  protos[0] = {{0, 0, 0}, 1, {0.0}};
  protos[1] = {{1, 0, 0}, 2, {10.0}};
  KnnClassifier knn(std::move(protos), 1);
  EXPECT_EQ(knn.classify({4.9}), 1);
  EXPECT_EQ(knn.classify({5.1}), 2);
}

TEST(KnnTest, MajorityBeatsSingleCloser) {
  // One very close prototype of class 1, two slightly farther of class 2:
  // with k=3 the majority (class 2) wins.
  std::vector<Prototype> protos(3);
  protos[0] = {{0, 0, 0}, 1, {0.0}};
  protos[1] = {{1, 0, 0}, 2, {2.0}};
  protos[2] = {{2, 0, 0}, 2, {3.0}};
  KnnClassifier knn(std::move(protos), 3);
  EXPECT_EQ(knn.classify({0.5}), 2);
}

TEST(KnnTest, VolumeClassificationMatchesTruth) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(3);
  KnnClassifier knn(select_prototypes(truth, stack, 10, rng), 3);
  const ImageL result = knn.classify_volume(stack);
  EXPECT_DOUBLE_EQ(label_agreement(result, truth), 1.0);
}

TEST(KnnTest, ParallelMatchesSerial) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(3);
  KnnClassifier knn(select_prototypes(truth, stack, 10, rng), 3);
  const ImageL serial = knn.classify_volume(stack);
  for (const int P : {2, 3, 5}) {
    ImageL parallel;
    par::run_spmd(P, [&](par::Communicator& comm) {
      const ImageL mine = knn.classify_volume_parallel(stack, comm);
      if (comm.rank() == 0) parallel = mine;
    });
    EXPECT_EQ(parallel.data(), serial.data()) << "P=" << P;
  }
}

TEST(KnnTest, DistanceWeightedOutvotesFarMajority) {
  // k=3: one very close class-1 prototype vs two distant class-2 prototypes.
  // Majority picks 2; distance weighting picks 1.
  std::vector<Prototype> protos(3);
  protos[0] = {{0, 0, 0}, 1, {0.0}};
  protos[1] = {{1, 0, 0}, 2, {10.0}};
  protos[2] = {{2, 0, 0}, 2, {12.0}};
  KnnClassifier majority(protos, 3, KnnClassifier::Voting::kMajority);
  KnnClassifier weighted(protos, 3, KnnClassifier::Voting::kDistanceWeighted);
  EXPECT_EQ(majority.classify({0.5}), 2);
  EXPECT_EQ(weighted.classify({0.5}), 1);
}

TEST(KnnTest, VotingModesAgreeWhenClear) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(6);
  const auto protos = select_prototypes(truth, stack, 15, rng);
  KnnClassifier majority(protos, 5, KnnClassifier::Voting::kMajority);
  KnnClassifier weighted(protos, 5, KnnClassifier::Voting::kDistanceWeighted);
  const ImageL a = majority.classify_volume(stack);
  const ImageL b = weighted.classify_volume(stack);
  EXPECT_DOUBLE_EQ(label_agreement(a, b), 1.0);
}

// Reference oracle: the k-NN search as first written, before the contiguous
// prototype array, the partial-distance exit and the allocation-free top-k
// buffer. It allocates a hit list and a std::map per query. KnnClassifier
// must reproduce it label for label, ties included.
std::uint8_t reference_classify(const std::vector<Prototype>& prototypes, int k_in,
                                KnnClassifier::Voting voting,
                                const std::vector<double>& feature) {
  const int k = std::min<int>(k_in, static_cast<int>(prototypes.size()));
  struct Hit {
    double d2;
    std::uint8_t label;
  };
  std::vector<Hit> best;
  for (const auto& p : prototypes) {
    double d2 = 0.0;
    for (std::size_t c = 0; c < feature.size(); ++c) {
      const double diff = feature[c] - p.features[c];
      d2 += diff * diff;
    }
    if (static_cast<int>(best.size()) < k || d2 < best.back().d2) {
      const Hit h{d2, p.label};
      const auto pos = std::lower_bound(
          best.begin(), best.end(), h,
          [](const Hit& a, const Hit& b) { return a.d2 < b.d2; });
      best.insert(pos, h);
      if (static_cast<int>(best.size()) > k) best.pop_back();
    }
  }
  if (voting == KnnClassifier::Voting::kDistanceWeighted) {
    std::map<std::uint8_t, double> weights;
    for (const auto& h : best) weights[h.label] += 1.0 / (h.d2 + 1e-9);
    std::uint8_t winner = best.front().label;
    double max_w = -1.0;
    for (const auto& [lbl, w] : weights) {
      if (w > max_w) {
        max_w = w;
        winner = lbl;
      }
    }
    return winner;
  }
  std::map<std::uint8_t, int> votes;
  for (const auto& h : best) ++votes[h.label];
  int max_votes = 0;
  for (const auto& [lbl, v] : votes) max_votes = std::max(max_votes, v);
  for (const auto& h : best) {
    if (votes[h.label] == max_votes) return h.label;
  }
  return best.front().label;
}

/// Checks KnnClassifier against the oracle on every voxel of `stack`:
/// single-vector classify, classify_volume, and classify_volume_parallel at
/// 1, 2 and 4 ranks.
void expect_matches_reference(const std::vector<Prototype>& prototypes, int k,
                              KnnClassifier::Voting voting, const FeatureStack& stack) {
  const KnnClassifier knn(prototypes, k, voting);
  const ImageL serial = knn.classify_volume(stack);
  const IVec3 d = stack.dims();
  std::vector<double> feature;
  int mismatches = 0;
  for (int kk = 0; kk < d.z; ++kk) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        stack.feature_at(i, j, kk, feature);
        const std::uint8_t expected = reference_classify(prototypes, k, voting, feature);
        mismatches += knn.classify(feature) != expected;
        mismatches += serial(i, j, kk) != expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  for (const int ranks : {1, 2, 4}) {
    ImageL parallel;
    par::run_spmd(ranks, [&](par::Communicator& comm) {
      const ImageL mine = knn.classify_volume_parallel(stack, comm);
      if (comm.rank() == 0) parallel = mine;
    });
    EXPECT_EQ(parallel.data(), serial.data()) << ranks << " ranks";
  }
}

TEST(KnnEquivalenceTest, MatchesReferenceUnderExactTiesAndDuplicates) {
  // Small integer features (times exact weights) make equal distances
  // common, so every tie rule is exercised: equal distances in the top-k
  // buffer, an equal k-th distance arriving at a full buffer, majority ties
  // and distance-weighted ties. Duplicate prototypes (same feature, same or
  // different label) sit in the set on purpose; labels span 0 to 255.
  const IVec3 dims{9, 8, 7};
  Rng rng(21);
  FeatureStack stack;
  for (const double weight : {1.0, 1.5, 2.0}) {
    ImageF channel(dims);
    for (auto& v : channel.data()) v = static_cast<float>(rng.uniform_index(4));
    stack.add_channel(std::move(channel), weight);
  }
  const std::array<std::uint8_t, 5> labels{0, 1, 2, 7, 255};
  std::vector<Prototype> prototypes;
  for (int p = 0; p < 24; ++p) {
    Prototype proto;
    proto.voxel = {static_cast<int>(rng.uniform_index(9)),
                   static_cast<int>(rng.uniform_index(8)),
                   static_cast<int>(rng.uniform_index(7))};
    const std::size_t label_index = rng.uniform_index(labels.size());
    proto.label = labels[label_index];
    stack.feature_at(proto.voxel.x, proto.voxel.y, proto.voxel.z, proto.features);
    prototypes.push_back(proto);
    if (p % 4 == 0) {  // same feature, other label
      proto.label = labels[(label_index + 1 + rng.uniform_index(labels.size() - 1)) %
                           labels.size()];
      prototypes.push_back(proto);
    }
    if (p % 6 == 0) prototypes.push_back(proto);  // exact duplicate
  }
  ASSERT_LT(prototypes.size(), 40u);
  for (const int k : {1, 2, 5, 40}) {  // 40 > #prototypes
    for (const auto voting :
         {KnnClassifier::Voting::kMajority, KnnClassifier::Voting::kDistanceWeighted}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " voting "
                                      << static_cast<int>(voting));
      expect_matches_reference(prototypes, k, voting, stack);
    }
  }
}

TEST(KnnEquivalenceTest, MatchesReferenceOnPhantomFeatures) {
  // The pipeline's feature space: intensity plus saturated distance channels
  // and robustly selected prototypes.
  phantom::PhantomConfig pc;
  pc.dims = {24, 24, 24};
  pc.spacing = {4.5, 4.5, 4.5};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  IntraopSegmentationConfig cfg;
  cfg.classes = {0, 1, 2, 3, 4};
  cfg.exclude_classes = {5, 6};
  cfg.dt_saturation_mm = 10.0;
  cfg.dt_weight = 1.5;
  const FeatureStack stack = build_feature_stack(cas.intraop, cas.preop_labels, cfg);
  Rng rng(cfg.seed);
  const auto prototypes = select_prototypes_robust(cas.preop_labels, stack, 30, rng,
                                                   cfg.exclude_classes, 6.0, 4.0);
  for (const auto voting :
       {KnnClassifier::Voting::kMajority, KnnClassifier::Voting::kDistanceWeighted}) {
    SCOPED_TRACE(testing::Message() << "voting " << static_cast<int>(voting));
    expect_matches_reference(prototypes, 5, voting, stack);
  }
}

TEST(MetricsTest, DiceOfIdenticalIsOne) {
  ImageL a({4, 4, 4}, 0);
  a.at(1, 1, 1) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, a, 1), 1.0);
}

TEST(MetricsTest, DiceOfDisjointIsZero) {
  ImageL a({4, 4, 4}, 0), b({4, 4, 4}, 0);
  a.at(0, 0, 0) = 1;
  b.at(1, 0, 0) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, b, 1), 0.0);
}

TEST(MetricsTest, DiceHalfOverlap) {
  ImageL a({4, 1, 1}, 0), b({4, 1, 1}, 0);
  a.at(0, 0, 0) = a.at(1, 0, 0) = 1;
  b.at(1, 0, 0) = b.at(2, 0, 0) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, b, 1), 0.5);
}

TEST(MaskTest, SelectsRequestedLabels) {
  ImageL labels({3, 1, 1}, 0);
  labels.at(0, 0, 0) = 3;
  labels.at(1, 0, 0) = 4;
  labels.at(2, 0, 0) = 5;
  const ImageL mask = mask_of_labels(labels, {3, 5});
  EXPECT_EQ(mask.at(0, 0, 0), 1);
  EXPECT_EQ(mask.at(1, 0, 0), 0);
  EXPECT_EQ(mask.at(2, 0, 0), 1);
}

class IntraopSegTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig cfg;
    cfg.dims = {40, 40, 40};
    cfg.spacing = {3.0, 3.0, 3.0};
    case_ = new phantom::PhantomCase(phantom::make_case(cfg, phantom::ShiftConfig{}));
  }
  static void TearDownTestSuite() {
    delete case_;
    case_ = nullptr;
  }
  static IntraopSegmentationConfig config() {
    IntraopSegmentationConfig c;
    c.classes = {phantom::label(Tissue::kBackground), phantom::label(Tissue::kSkin),
                 phantom::label(Tissue::kSkullGap), phantom::label(Tissue::kBrain),
                 phantom::label(Tissue::kVentricle)};
    c.exclude_classes = {phantom::label(Tissue::kFalx),
                         phantom::label(Tissue::kTumor)};
    c.dt_saturation_mm = 10.0;
    c.dt_weight = 1.5;
    return c;
  }
  static phantom::PhantomCase* case_;
};
phantom::PhantomCase* IntraopSegTest::case_ = nullptr;

TEST_F(IntraopSegTest, BrainMaskMatchesTruth) {
  const auto seg = segment_intraop(case_->intraop, case_->preop_labels, config());
  const std::vector<std::uint8_t> brainish = {3, 4, 5, 6};
  const ImageL mask = mask_of_labels(seg.labels, brainish);
  const ImageL truth = mask_of_labels(case_->intraop_labels, brainish);
  EXPECT_GT(dice_coefficient(mask, truth, 1), 0.85);
}

TEST_F(IntraopSegTest, PrototypeReuseReproducesModel) {
  const auto cfg = config();
  const auto first = segment_intraop(case_->intraop, case_->preop_labels, cfg);
  const auto second = segment_intraop(case_->intraop, case_->preop_labels, cfg,
                                      nullptr, &first.prototypes);
  // Same scan + same (refreshed) prototypes ⇒ same classification.
  EXPECT_EQ(second.labels.data(), first.labels.data());
}

TEST_F(IntraopSegTest, ParallelDriverMatchesSerial) {
  const auto cfg = config();
  const auto serial = segment_intraop(case_->intraop, case_->preop_labels, cfg);
  ImageL parallel;
  par::run_spmd(3, [&](par::Communicator& comm) {
    const auto seg = segment_intraop(case_->intraop, case_->preop_labels, cfg, &comm);
    if (comm.rank() == 0) parallel = seg.labels;
  });
  EXPECT_EQ(parallel.data(), serial.labels.data());
}

TEST_F(IntraopSegTest, ExcludedClassesNeverAppear) {
  const auto seg = segment_intraop(case_->intraop, case_->preop_labels, config());
  for (const auto l : seg.labels.data()) {
    EXPECT_NE(l, phantom::label(Tissue::kFalx));
    EXPECT_NE(l, phantom::label(Tissue::kTumor));
  }
}

}  // namespace
}  // namespace neuro::seg
