#include "phantom/brain_phantom.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "image/filters.h"

namespace neuro::phantom {

double tissue_intensity(Tissue t) {
  // Loosely modelled on T1-weighted 0.5T IMRI appearance (paper Fig. 4:
  // "the skin bright, the brain gray and the lateral ventricles dark").
  switch (t) {
    case Tissue::kBackground: return 8.0;
    case Tissue::kSkin: return 215.0;
    case Tissue::kSkullGap: return 32.0;
    case Tissue::kBrain: return 130.0;
    case Tissue::kVentricle: return 45.0;
    case Tissue::kFalx: return 75.0;
    case Tissue::kTumor: return 180.0;
  }
  return 0.0;
}

double BrainGeometry::ellipsoid_rho(const Vec3& p, const Vec3& c, const Vec3& semi) {
  const Vec3 u{(p.x - c.x) / semi.x, (p.y - c.y) / semi.y, (p.z - c.z) / semi.z};
  return norm(u);
}

BrainGeometry::BrainGeometry(const PhantomConfig& config) : config_(config) {
  const Vec3 extent{config.dims.x * config.spacing.x, config.dims.y * config.spacing.y,
                    config.dims.z * config.spacing.z};
  center_ = extent * 0.5;
  // Distinct semi-axes: real heads are longer anterior-posterior than they
  // are tall, and the asymmetry makes rigid rotations identifiable (a
  // y=z-symmetric head leaves rotation about x unconstrained for the
  // registration stage).
  head_semi_ = {0.40 * extent.x, 0.45 * extent.y, 0.34 * extent.z};
  lobe_offset_ = {0.16 * head_semi_.x, 0.0, 0.0};
  lobe_semi_ = {0.64 * head_semi_.x, 0.80 * head_semi_.y, 0.78 * head_semi_.z};
  vent_semi_ = {0.11 * head_semi_.x, 0.30 * head_semi_.y, 0.16 * head_semi_.z};
  vent_offset_ = {0.20 * head_semi_.x, 0.02 * head_semi_.y, 0.08 * head_semi_.z};
  tumor_radius_ = 0.16 * head_semi_.x;
  tumor_center_ = center_ + Vec3{0.38 * head_semi_.x, 0.10 * head_semi_.y,
                                 0.38 * head_semi_.z};
  craniotomy_center_ = {tumor_center_.x, tumor_center_.y, center_.z + head_semi_.z};
}

Tissue BrainGeometry::tissue_at(const Vec3& p) const {
  const double rho_head = ellipsoid_rho(p, center_, head_semi_);
  if (rho_head > 1.0) return Tissue::kBackground;

  const double rho_l = ellipsoid_rho(p, center_ - lobe_offset_, lobe_semi_);
  const double rho_r = ellipsoid_rho(p, center_ + lobe_offset_, lobe_semi_);
  const bool in_brain = std::min(rho_l, rho_r) <= 1.0;

  if (!in_brain) {
    // Between brain and skin: outer shell is skin, the rest is skull + CSF.
    return rho_head > 0.93 ? Tissue::kSkin : Tissue::kSkullGap;
  }

  // Interior structures, highest precedence first.
  const double rho_v1 = ellipsoid_rho(p, center_ - vent_offset_, vent_semi_);
  const double rho_v2 = ellipsoid_rho(p, center_ + vent_offset_, vent_semi_);
  if (std::min(rho_v1, rho_v2) <= 1.0) return Tissue::kVentricle;

  if (config_.with_tumor && norm(p - tumor_center_) <= tumor_radius_) {
    return Tissue::kTumor;
  }

  if (config_.with_falx && std::abs(p.x - center_.x) < 1.3 && p.z > center_.z) {
    return Tissue::kFalx;
  }

  return Tissue::kBrain;
}

double BrainGeometry::brain_interior_weight(const Vec3& p) const {
  const double rho_l = ellipsoid_rho(p, center_ - lobe_offset_, lobe_semi_);
  const double rho_r = ellipsoid_rho(p, center_ + lobe_offset_, lobe_semi_);
  const double rho = std::min(rho_l, rho_r);
  // Approximate interior depth in mm from the normalized radius.
  const double mean_semi = (lobe_semi_.x + lobe_semi_.y + lobe_semi_.z) / 3.0;
  const double depth_mm = (1.0 - rho) * mean_semi;
  return std::clamp(depth_mm / 4.0, 0.0, 1.0);
}

bool BrainGeometry::inside_skull(const Vec3& p) const {
  return ellipsoid_rho(p, center_, head_semi_) <= 0.90;
}

Vec3 BrainGeometry::shift_at(const Vec3& p, const ShiftConfig& shift) const {
  Vec3 v{};
  // The brain slides within the CSF gap: the field lives on brain tissue and
  // is zero outside it (skull and skin do not move). The *exposed* surface
  // under the craniotomy carries the full sinking — this is what makes the
  // deformation recoverable from surface correspondences, as in the paper —
  // while the anchored base (h → 0) and the lateral margins (wc → 0) stay put.
  const double rho_l = ellipsoid_rho(p, center_ - lobe_offset_, lobe_semi_);
  const double rho_r = ellipsoid_rho(p, center_ + lobe_offset_, lobe_semi_);
  if (std::min(rho_l, rho_r) > 1.0) return v;  // outside the brain

  // Gravity sinking under the craniotomy: backward field points *up* (an
  // intraop point maps to the higher preop point the tissue came from).
  const double dx = p.x - craniotomy_center_.x;
  const double dy = p.y - craniotomy_center_.y;
  const double s2 = shift.craniotomy_sigma_mm * shift.craniotomy_sigma_mm;
  const double wc = std::exp(-0.5 * (dx * dx + dy * dy) / s2);
  const double brain_bottom = center_.z - lobe_semi_.z;
  const double h =
      std::clamp((p.z - brain_bottom) / (2.0 * lobe_semi_.z), 0.0, 1.0);
  // Lateral rim taper: the brain is tethered at its lateral margins (falx,
  // tentorium, bridging structures), so the sag vanishes toward the side
  // walls. This also keeps the true motion normal-dominant at every surface,
  // i.e. observable by surface matching (no purely tangential slide that no
  // surface-driven registration — the paper's included — could recover).
  const double rho_xy_l = std::hypot((p.x - (center_.x - lobe_offset_.x)) / lobe_semi_.x,
                                     (p.y - center_.y) / lobe_semi_.y);
  const double rho_xy_r = std::hypot((p.x - (center_.x + lobe_offset_.x)) / lobe_semi_.x,
                                     (p.y - center_.y) / lobe_semi_.y);
  const double wl =
      std::clamp((1.0 - std::min(rho_xy_l, rho_xy_r)) / 0.35, 0.0, 1.0);
  v.z += shift.max_sink_mm * wc * wl * std::pow(h, shift.depth_exponent);

  // Collapse toward the resection cavity: tissue near the removed tumor moves
  // inward, so the backward field points away from the cavity center.
  if (shift.resect_tumor && shift.resection_collapse_mm > 0.0) {
    const Vec3 d = p - tumor_center_;
    const double r = norm(d);
    if (r > 1e-9) {
      const double rs2 = shift.resection_sigma_mm * shift.resection_sigma_mm;
      const double wr = std::exp(-0.5 * r * r / rs2);
      v += (shift.resection_collapse_mm * wr / r) * d;
    }
  }
  return v;
}

ImageF render_intensities(const ImageL& labels) {
  ImageF img(labels.dims(), 0.0f, labels.spacing(), labels.origin());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    img.data()[i] =
        static_cast<float>(tissue_intensity(static_cast<Tissue>(labels.data()[i])));
  }
  return img;
}

PhantomCase make_case(const PhantomConfig& config, const ShiftConfig& shift,
                      const RigidTransform& rigid_offset) {
  PhantomCase c;
  c.config = config;
  c.shift = shift;
  c.rigid_offset = rigid_offset;
  c.geometry = BrainGeometry(config);
  const BrainGeometry& geo = c.geometry;

  // --- Preoperative scan: anatomy in its initial configuration. ---
  c.preop_labels = ImageL(config.dims, 0, config.spacing, {0, 0, 0});
  const IVec3 d = config.dims;
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        c.preop_labels(i, j, k) = label(geo.tissue_at(c.preop_labels.voxel_to_physical(i, j, k)));
      }
    }
  }
  Rng rng(config.seed);
  c.preop = gaussian_smooth(render_intensities(c.preop_labels), 0.7);
  add_rician_noise(c.preop, config.noise_sigma, rng);

  // --- Intraoperative scan: backward warp through rigid offset + shift. ---
  // Intraop voxel y samples anatomy at x = R^-1(y) + v(R^-1(y)).
  c.intraop_labels = ImageL(config.dims, 0, config.spacing, {0, 0, 0});
  c.true_backward_shift = ImageV(config.dims, Vec3{}, config.spacing, {0, 0, 0});
  const Mat3 R = rigid_offset.matrix();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = c.intraop_labels.voxel_to_physical(i, j, k);
        const Vec3 q = rigid_offset.apply_inverse(R, y);
        const Vec3 x = q + geo.shift_at(q, shift);
        c.true_backward_shift(i, j, k) = x - y;
        Tissue t = geo.tissue_at(x);
        if (shift.resect_tumor && t == Tissue::kTumor) {
          // Tissue loss: the resection cavity images dark, like the
          // "large dark region" the paper describes in its Fig. 5.
          t = Tissue::kBackground;
        }
        // Fluid fills the space the sinking brain vacates: an intracranial
        // point whose source maps outside the parenchyma (into skin or air)
        // images as CSF, not as stretched scalp.
        if ((t == Tissue::kSkin || t == Tissue::kBackground) && geo.inside_skull(q) &&
            !(shift.resect_tumor &&
              norm(x - geo.tumor_center()) <= geo.tumor_radius())) {
          t = Tissue::kSkullGap;
        }
        c.intraop_labels(i, j, k) = label(t);
      }
    }
  }
  Rng rng2 = rng.split(1);
  c.intraop = gaussian_smooth(render_intensities(c.intraop_labels), 0.7);
  add_rician_noise(c.intraop, config.noise_sigma, rng2);
  apply_intensity_drift(c.intraop, config.intensity_drift);

  return c;
}

ShiftConfig shift_at_progress(const ShiftConfig& final_shift, double progress,
                              double resection_onset) {
  NEURO_REQUIRE(progress >= 0.0 && progress <= 1.0,
                "shift_at_progress: progress must lie in [0,1], got " << progress);
  ShiftConfig s = final_shift;
  s.max_sink_mm *= progress;
  const bool resected = final_shift.resect_tumor && progress >= resection_onset;
  s.resect_tumor = resected;
  s.resection_collapse_mm = resected ? final_shift.resection_collapse_mm *
                                           (progress - resection_onset) /
                                           std::max(1e-9, 1.0 - resection_onset)
                                     : 0.0;
  return s;
}

std::vector<PhantomCase> make_case_sequence(
    const PhantomConfig& config, const ShiftConfig& final_shift,
    const std::vector<double>& progress,
    const std::vector<RigidTransform>& rigid_offsets) {
  NEURO_REQUIRE(rigid_offsets.empty() || rigid_offsets.size() == progress.size(),
                "make_case_sequence: rigid_offsets must be empty or match "
                "progress count");
  std::vector<PhantomCase> cases;
  cases.reserve(progress.size());
  for (std::size_t i = 0; i < progress.size(); ++i) {
    PhantomConfig pc = config;
    // Fresh intraop noise per scan, shared preop (same base seed).
    pc.seed = config.seed + 1000 * i;
    const RigidTransform offset =
        rigid_offsets.empty() ? RigidTransform{} : rigid_offsets[i];
    cases.push_back(
        make_case(pc, shift_at_progress(final_shift, progress[i]), offset));
    // All scans of one procedure share the preoperative acquisition.
    if (i > 0) {
      cases[i].preop = cases[0].preop;
      cases[i].preop_labels = cases[0].preop_labels;
    }
  }
  return cases;
}

}  // namespace neuro::phantom
