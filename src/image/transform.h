// Rigid transforms and resampling through them.
#pragma once

#include <array>

#include "base/mat3.h"
#include "image/image3d.h"

namespace neuro {

/// Rigid 6-dof transform y = R(rx,ry,rz) * (x - c) + c + t, rotating about a
/// fixed center c (typically the volume center, which keeps rotation and
/// translation parameters well-conditioned for the optimizer).
struct RigidTransform {
  std::array<double, 3> rotation{0, 0, 0};     ///< Euler angles rx, ry, rz (rad)
  std::array<double, 3> translation{0, 0, 0};  ///< physical units
  Vec3 center{0, 0, 0};

  /// Rotation matrix R(rx, ry, rz). Loops over many points build it once and
  /// pass it to apply(R, p) / apply_inverse(R, p); the one-argument forms
  /// rebuild it on every call (six sin/cos).
  [[nodiscard]] Mat3 matrix() const {
    return rotation_zyx(rotation[0], rotation[1], rotation[2]);
  }

  /// y = R * (p - c) + c + t with `R == matrix()`; bit-identical to apply(p).
  [[nodiscard]] Vec3 apply(const Mat3& R, const Vec3& p) const {
    return R * (p - center) + center +
           Vec3{translation[0], translation[1], translation[2]};
  }
  [[nodiscard]] Vec3 apply(const Vec3& p) const { return apply(matrix(), p); }

  /// Inverse transform: x = R^T * (y - c - t) + c, with `R == matrix()`;
  /// bit-identical to apply_inverse(p).
  [[nodiscard]] Vec3 apply_inverse(const Mat3& R, const Vec3& p) const {
    return R.transposed() * (p - center - Vec3{translation[0], translation[1],
                                               translation[2]}) +
           center;
  }
  [[nodiscard]] Vec3 apply_inverse(const Vec3& p) const {
    return apply_inverse(matrix(), p);
  }

  [[nodiscard]] RigidTransform inverse() const;

  /// Flat parameter view for the optimizer: [rx, ry, rz, tx, ty, tz].
  [[nodiscard]] std::array<double, 6> params() const {
    return {rotation[0], rotation[1], rotation[2], translation[0], translation[1],
            translation[2]};
  }
  static RigidTransform from_params(const std::array<double, 6>& p, const Vec3& center) {
    RigidTransform t;
    t.rotation = {p[0], p[1], p[2]};
    t.translation = {p[3], p[4], p[5]};
    t.center = center;
    return t;
  }
};

/// Resamples `moving` onto the grid of `fixed_grid` through `transform`
/// (mapping fixed-space points into moving space), trilinear interpolation,
/// `outside` value beyond the moving volume.
ImageF resample_rigid(const ImageF& moving, const ImageF& fixed_grid,
                      const RigidTransform& transform, float outside = 0.0f);

/// Nearest-neighbour variant for label maps.
ImageL resample_rigid_labels(const ImageL& moving, const ImageL& fixed_grid,
                             const RigidTransform& transform, std::uint8_t outside = 0);

}  // namespace neuro
