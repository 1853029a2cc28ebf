#include "seg/knn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "base/check.h"
#include "image/distance.h"

namespace neuro::seg {

void FeatureStack::add_channel(ImageF channel, double weight) {
  NEURO_REQUIRE(weight > 0.0, "FeatureStack: channel weight must be positive");
  if (!channels_.empty()) {
    NEURO_REQUIRE(channel.dims() == channels_.front().dims(),
                  "FeatureStack: channel dims mismatch");
  }
  channels_.push_back(std::move(channel));
  weights_.push_back(weight);
}

IVec3 FeatureStack::dims() const {
  NEURO_REQUIRE(!channels_.empty(), "FeatureStack: no channels");
  return channels_.front().dims();
}

std::size_t FeatureStack::voxels() const {
  NEURO_REQUIRE(!channels_.empty(), "FeatureStack: no channels");
  return channels_.front().size();
}

void FeatureStack::feature_at(int i, int j, int k, std::vector<double>& out) const {
  out.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    out[c] = weights_[c] * static_cast<double>(channels_[c](i, j, k));
  }
}

std::vector<Prototype> select_prototypes(const ImageL& truth, const FeatureStack& stack,
                                         int per_class, Rng& rng,
                                         const std::vector<std::uint8_t>& exclude) {
  NEURO_REQUIRE(per_class > 0, "select_prototypes: per_class must be positive");
  NEURO_REQUIRE(truth.dims() == stack.dims(), "select_prototypes: dims mismatch");

  // Bucket voxel indices by label.
  std::map<std::uint8_t, std::vector<IVec3>> by_label;
  const IVec3 d = truth.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const std::uint8_t l = truth(i, j, k);
        if (std::find(exclude.begin(), exclude.end(), l) != exclude.end()) continue;
        by_label[l].push_back({i, j, k});
      }
    }
  }

  std::vector<Prototype> prototypes;
  for (auto& [lbl, voxels] : by_label) {
    const int n = std::min<int>(per_class, static_cast<int>(voxels.size()));
    for (int s = 0; s < n; ++s) {
      // Sampling without replacement via partial Fisher–Yates.
      const std::size_t pick =
          static_cast<std::size_t>(s) +
          rng.uniform_index(voxels.size() - static_cast<std::size_t>(s));
      std::swap(voxels[static_cast<std::size_t>(s)], voxels[pick]);
      Prototype p;
      p.voxel = voxels[static_cast<std::size_t>(s)];
      p.label = lbl;
      stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
      prototypes.push_back(std::move(p));
    }
  }
  return prototypes;
}

std::vector<Prototype> select_prototypes_robust(
    const ImageL& truth, const FeatureStack& stack, int per_class, Rng& rng,
    const std::vector<std::uint8_t>& exclude, double margin_mm, double trim_mads) {
  NEURO_REQUIRE(per_class > 0, "select_prototypes_robust: per_class must be positive");
  NEURO_REQUIRE(truth.dims() == stack.dims(), "select_prototypes_robust: dims mismatch");

  // Distinct labels (minus exclusions).
  std::vector<std::uint8_t> classes;
  {
    std::array<bool, 256> seen{};
    for (const auto l : truth.data()) seen[l] = true;
    for (int l = 0; l < 256; ++l) {
      if (seen[static_cast<std::size_t>(l)] &&
          std::find(exclude.begin(), exclude.end(), static_cast<std::uint8_t>(l)) ==
              exclude.end()) {
        classes.push_back(static_cast<std::uint8_t>(l));
      }
    }
  }

  const IVec3 d = truth.dims();
  std::vector<Prototype> prototypes;
  for (const std::uint8_t cls : classes) {
    // Distance from every voxel to the nearest *other*-label voxel: inside
    // the class this is the interior depth.
    ImageL other(d, 0, truth.spacing(), truth.origin());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      other.data()[i] = truth.data()[i] != cls ? 1 : 0;
    }
    const ImageF depth = distance_from_mask(other, 4.0 * margin_mm + 1.0);

    std::vector<IVec3> candidates;
    for (const double margin : {margin_mm, margin_mm / 2.0, 0.0}) {
      candidates.clear();
      for (int k = 0; k < d.z; ++k) {
        for (int j = 0; j < d.y; ++j) {
          for (int i = 0; i < d.x; ++i) {
            if (truth(i, j, k) == cls && depth(i, j, k) >= margin) {
              candidates.push_back({i, j, k});
            }
          }
        }
      }
      if (static_cast<int>(candidates.size()) >= per_class) break;
    }
    if (candidates.empty()) continue;

    // Sample without replacement.
    const int n = std::min<int>(per_class, static_cast<int>(candidates.size()));
    std::vector<Prototype> cls_protos;
    for (int s = 0; s < n; ++s) {
      const std::size_t pick =
          static_cast<std::size_t>(s) +
          rng.uniform_index(candidates.size() - static_cast<std::size_t>(s));
      std::swap(candidates[static_cast<std::size_t>(s)], candidates[pick]);
      Prototype p;
      p.voxel = candidates[static_cast<std::size_t>(s)];
      p.label = cls;
      stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
      cls_protos.push_back(std::move(p));
    }

    // Trim intensity outliers (channel 0) by median ± trim_mads * MAD.
    if (trim_mads > 0.0 && cls_protos.size() >= 4) {
      std::vector<double> intensities;
      intensities.reserve(cls_protos.size());
      for (const auto& p : cls_protos) intensities.push_back(p.features[0]);
      auto median_of = [](std::vector<double> v) {
        const std::size_t mid = v.size() / 2;
        std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
        return v[mid];
      };
      const double med = median_of(intensities);
      std::vector<double> deviations;
      deviations.reserve(intensities.size());
      for (const double v : intensities) deviations.push_back(std::abs(v - med));
      const double mad = std::max(median_of(deviations), 1e-6);

      std::vector<Prototype> kept;
      for (auto& p : cls_protos) {
        if (std::abs(p.features[0] - med) <= trim_mads * mad) {
          kept.push_back(std::move(p));
        }
      }
      if (kept.size() >= cls_protos.size() / 4) cls_protos = std::move(kept);
    }

    for (auto& p : cls_protos) prototypes.push_back(std::move(p));
  }
  NEURO_CHECK_MSG(!prototypes.empty(),
                  "select_prototypes_robust: no prototypes selectable");
  return prototypes;
}

void refresh_prototypes(std::vector<Prototype>& prototypes, const FeatureStack& stack) {
  for (auto& p : prototypes) {
    NEURO_REQUIRE(p.voxel.x >= 0 && p.voxel.x < stack.dims().x &&
                      p.voxel.y >= 0 && p.voxel.y < stack.dims().y &&
                      p.voxel.z >= 0 && p.voxel.z < stack.dims().z,
                  "refresh_prototypes: recorded location outside the new stack");
    stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
  }
}

KnnClassifier::KnnClassifier(const std::vector<Prototype>& prototypes, int k,
                             Voting voting)
    : k_(k), voting_(voting) {
  NEURO_REQUIRE(k_ > 0, "KnnClassifier: k must be positive");
  NEURO_REQUIRE(!prototypes.empty(), "KnnClassifier: need at least one prototype");
  channels_ = prototypes.front().features.size();
  features_.reserve(prototypes.size() * channels_);
  labels_.reserve(prototypes.size());
  for (const auto& p : prototypes) {
    NEURO_REQUIRE(p.features.size() == channels_,
                  "KnnClassifier: inconsistent prototype feature sizes");
    features_.insert(features_.end(), p.features.begin(), p.features.end());
    labels_.push_back(p.label);
  }
}

/// Scratch of one classifying loop: the k nearest hits so far, ascending by
/// squared distance, and per-label tallies that are all zero between queries.
struct KnnClassifier::Search {
  explicit Search(std::size_t k) : d2(k), label(k) {}
  std::vector<double> d2;
  std::vector<std::uint8_t> label;
  std::array<int, 256> votes{};
  std::array<double, 256> weights{};
};

std::uint8_t KnnClassifier::classify(const double* feature, Search& search) const {
  const int k = static_cast<int>(search.d2.size());
  double* const best_d2 = search.d2.data();
  std::uint8_t* const best_label = search.label.data();
  int size = 0;
  const double* proto = features_.data();
  for (std::size_t p = 0; p < labels_.size(); ++p, proto += channels_) {
    double d2 = 0.0;
    if (size < k) {
      for (std::size_t c = 0; c < channels_; ++c) {
        const double diff = feature[c] - proto[c];
        d2 += diff * diff;
      }
    } else {
      // Partial sums of squares never decrease, so once one reaches the k-th
      // best distance the full sum fails `d2 < kth` too: stop early.
      const double kth = best_d2[k - 1];
      std::size_t c = 0;
      for (; c < channels_; ++c) {
        const double diff = feature[c] - proto[c];
        d2 += diff * diff;
        if (d2 >= kth) break;
      }
      if (c < channels_) continue;
    }
    // Insert before any equal distance; the k-th hit drops off a full buffer.
    const int pos =
        static_cast<int>(std::lower_bound(best_d2, best_d2 + size, d2) - best_d2);
    for (int i = std::min(size, k - 1); i > pos; --i) {
      best_d2[i] = best_d2[i - 1];
      best_label[i] = best_label[i - 1];
    }
    best_d2[pos] = d2;
    best_label[pos] = labels_[p];
    size = std::min(size + 1, k);
  }

  std::uint8_t winner = best_label[0];
  if (voting_ == Voting::kDistanceWeighted) {
    // Inverse-square-distance weights (ε regularizes exact hits), summed per
    // label in distance order.
    constexpr double kEps = 1e-9;
    for (int i = 0; i < size; ++i) {
      search.weights[best_label[i]] += 1.0 / (best_d2[i] + kEps);
    }
    double max_w = -1.0;
    for (int i = 0; i < size; ++i) {
      const std::uint8_t l = best_label[i];
      const double w = search.weights[l];
      if (w > max_w || (w == max_w && l < winner)) {
        max_w = w;
        winner = l;
      }
    }
    for (int i = 0; i < size; ++i) search.weights[best_label[i]] = 0.0;
    return winner;
  }

  // Majority vote; ties go to the label whose nearest hit is closest.
  int max_votes = 0;
  for (int i = 0; i < size; ++i) {
    max_votes = std::max(max_votes, ++search.votes[best_label[i]]);
  }
  for (int i = 0; i < size; ++i) {  // distance-sorted
    if (search.votes[best_label[i]] == max_votes) {
      winner = best_label[i];
      break;
    }
  }
  for (int i = 0; i < size; ++i) search.votes[best_label[i]] = 0;
  return winner;
}

std::uint8_t KnnClassifier::classify(const std::vector<double>& feature) const {
  NEURO_REQUIRE(feature.size() == channels_,
                "KnnClassifier::classify: feature size mismatch");
  Search search(std::min(static_cast<std::size_t>(k_), labels_.size()));
  return classify(feature.data(), search);
}

void KnnClassifier::classify_slab(const FeatureStack& stack, int k_begin, int k_end,
                                  ImageL& out) const {
  NEURO_REQUIRE(stack.channels() == channels_,
                "KnnClassifier: feature stack has the wrong channel count");
  Search search(std::min(static_cast<std::size_t>(k_), labels_.size()));
  std::vector<double> feature;
  const IVec3 d = stack.dims();
  for (int k = k_begin; k < k_end; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        stack.feature_at(i, j, k, feature);
        out(i, j, k) = classify(feature.data(), search);
      }
    }
  }
}

ImageL KnnClassifier::classify_volume(const FeatureStack& stack) const {
  const ImageF& ref = stack.channel(0);
  ImageL out(ref.dims(), 0, ref.spacing(), ref.origin());
  classify_slab(stack, 0, ref.dims().z, out);
  return out;
}

ImageL KnnClassifier::classify_volume_parallel(const FeatureStack& stack,
                                               par::Communicator& comm) const {
  const ImageF& ref = stack.channel(0);
  const IVec3 d = ref.dims();
  const int nranks = comm.size();
  const int rank = comm.rank();
  // Contiguous slice slabs, remainder spread over the first ranks.
  const int base = d.z / nranks;
  const int extra = d.z % nranks;
  const int begin = rank * base + std::min(rank, extra);
  const int end = begin + base + (rank < extra ? 1 : 0);

  ImageL out(d, 0, ref.spacing(), ref.origin());
  classify_slab(stack, begin, end, out);
  comm.work().add_flops(static_cast<double>(end - begin) * d.x * d.y *
                        static_cast<double>(labels_.size()) *
                        (3.0 * static_cast<double>(stack.channels())));

  // Gather the slabs: each rank contributes its slice range.
  const std::size_t slab_begin = out.index(0, 0, begin);
  const std::size_t slab_len = out.index(0, 0, end) - slab_begin;
  auto parts = comm.allgather_parts(std::span<const std::uint8_t>(
      out.data().data() + slab_begin, slab_len));
  std::size_t offset = 0;
  for (const auto& part : parts) {
    std::copy(part.begin(), part.end(), out.data().begin() + static_cast<long>(offset));
    offset += part.size();
  }
  NEURO_CHECK(offset == out.size());
  return out;
}

double label_agreement(const ImageL& a, const ImageL& b, const ImageL* mask) {
  NEURO_REQUIRE(a.dims() == b.dims(), "label_agreement: dims mismatch");
  std::size_t total = 0, same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mask != nullptr && mask->data()[i] == 0) continue;
    ++total;
    if (a.data()[i] == b.data()[i]) ++same;
  }
  return total == 0 ? 1.0 : static_cast<double>(same) / static_cast<double>(total);
}

ConfusionMatrix::ConfusionMatrix(const ImageL& predicted, const ImageL& truth) {
  NEURO_REQUIRE(predicted.dims() == truth.dims(), "ConfusionMatrix: dims mismatch");
  std::array<bool, 256> seen{};
  for (const auto v : predicted.data()) seen[v] = true;
  for (const auto v : truth.data()) seen[v] = true;
  for (int l = 0; l < 256; ++l) {
    if (seen[static_cast<std::size_t>(l)]) {
      labels_.push_back(static_cast<std::uint8_t>(l));
    }
  }
  const std::size_t n = labels_.size();
  counts_.assign(n * n, 0);
  std::array<int, 256> index{};
  index.fill(-1);
  for (std::size_t i = 0; i < n; ++i) index[labels_[i]] = static_cast<int>(i);
  for (std::size_t v = 0; v < truth.size(); ++v) {
    const auto t = static_cast<std::size_t>(index[truth.data()[v]]);
    const auto p = static_cast<std::size_t>(index[predicted.data()[v]]);
    ++counts_[t * n + p];
    ++total_;
    correct_ += truth.data()[v] == predicted.data()[v];
  }
}

int ConfusionMatrix::index_of(std::uint8_t label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) return -1;
  return static_cast<int>(it - labels_.begin());
}

std::size_t ConfusionMatrix::count(std::uint8_t truth_label,
                                   std::uint8_t predicted_label) const {
  const int t = index_of(truth_label);
  const int p = index_of(predicted_label);
  if (t < 0 || p < 0) return 0;
  return counts_[static_cast<std::size_t>(t) * labels_.size() +
                 static_cast<std::size_t>(p)];
}

double ConfusionMatrix::recall(std::uint8_t truth_label) const {
  const int t = index_of(truth_label);
  if (t < 0) return 1.0;
  std::size_t row_total = 0;
  for (std::size_t p = 0; p < labels_.size(); ++p) {
    row_total += counts_[static_cast<std::size_t>(t) * labels_.size() + p];
  }
  if (row_total == 0) return 1.0;
  return static_cast<double>(count(truth_label, truth_label)) /
         static_cast<double>(row_total);
}

double ConfusionMatrix::precision(std::uint8_t predicted_label) const {
  const int p = index_of(predicted_label);
  if (p < 0) return 1.0;
  std::size_t col_total = 0;
  for (std::size_t t = 0; t < labels_.size(); ++t) {
    col_total += counts_[t * labels_.size() + static_cast<std::size_t>(p)];
  }
  if (col_total == 0) return 1.0;
  return static_cast<double>(count(predicted_label, predicted_label)) /
         static_cast<double>(col_total);
}

double ConfusionMatrix::accuracy() const {
  return total_ == 0 ? 1.0 : static_cast<double>(correct_) / static_cast<double>(total_);
}

void ConfusionMatrix::print(std::ostream& os) const {
  // Format into a local stream so the caller's flags are never disturbed.
  std::ostringstream oss;
  oss << "  " << std::setw(10) << "truth\\pred";
  for (const auto l : labels_) oss << ' ' << std::setw(8) << static_cast<int>(l);
  oss << "   recall\n" << std::fixed << std::setprecision(3);
  for (const auto t : labels_) {
    oss << "  " << std::setw(10) << static_cast<int>(t);
    for (const auto p : labels_) {
      oss << ' ' << std::setw(8) << count(t, p);
    }
    oss << "   " << recall(t) << '\n';
  }
  oss << "  " << std::setw(10) << "precision";
  for (const auto p : labels_) oss << ' ' << std::setw(8) << precision(p);
  oss << "   acc " << accuracy() << '\n';
  os << oss.str();
}

double dice_coefficient(const ImageL& a, const ImageL& b, std::uint8_t l) {
  NEURO_REQUIRE(a.dims() == b.dims(), "dice_coefficient: dims mismatch");
  std::size_t na = 0, nb = 0, inter = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool ia = a.data()[i] == l;
    const bool ib = b.data()[i] == l;
    na += ia;
    nb += ib;
    inter += (ia && ib);
  }
  const std::size_t denom = na + nb;
  return denom == 0 ? 1.0 : 2.0 * static_cast<double>(inter) / static_cast<double>(denom);
}

}  // namespace neuro::seg
