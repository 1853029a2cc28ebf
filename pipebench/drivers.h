// Stage-by-stage drivers for the traced runs.
//
// The untraced benchmark calls the libraries' top-level entry points
// (core::run_intraop_pipeline, fem::solve_deformation, SessionServer). The
// traced run needs a span around every layer, so these drivers make the same
// calls those entry points make, one public layer function at a time, and
// must reproduce their outputs byte for byte (pipebench/tests.cpp, and every
// traced run at full size).
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "fem/deformation_solver.h"
#include "fem/material.h"
#include "spans.h"

namespace pipebench {

/// fem::solve_deformation's result plus the rank-0 solver timings the driven
/// run measures.
struct DrivenFem {
  neuro::fem::DeformationResult result;
  double pc_setup_s = 0.0;  ///< make_preconditioner
  double krylov_s = 0.0;    ///< the Krylov call alone
};

/// Runs fem::solve_deformation's scalar-CSR path step by step under
/// par::run_spmd: partition and topology, assemble_elasticity,
/// apply_dirichlet, operator finalisation, make_preconditioner and the Krylov
/// solve. Rank 0 records the spans. Throws std::invalid_argument for options
/// that path does not take (another backend, mixed precision, nodal loads,
/// fault injection).
DrivenFem drive_fem(const neuro::mesh::TetMesh& mesh,
                    const neuro::fem::MaterialMap& materials,
                    const std::vector<std::pair<neuro::mesh::NodeId, neuro::Vec3>>& prescribed,
                    const neuro::fem::DeformationSolveOptions& options,
                    SpanRecorder* recorder, int request);

/// Checks a solved field against the assembled system it solves, and times
/// the two kernels every Krylov iteration runs.
struct OperatorProbe {
  double true_relative_residual = 0.0;  ///< ‖b − A x‖ / ‖b‖
  double apply_ms = 0.0;     ///< one operator apply (rank 0, 0 when applies == 0)
  double pc_apply_ms = 0.0;  ///< one preconditioner apply
};

/// Re-assembles the system `options` describes, loads `field` as x, and
/// computes the true residual; then times `applies` operator and
/// preconditioner applies.
OperatorProbe probe_operator(
    const neuro::mesh::TetMesh& mesh, const neuro::fem::MaterialMap& materials,
    const std::vector<std::pair<neuro::mesh::NodeId, neuro::Vec3>>& prescribed,
    const neuro::fem::DeformationSolveOptions& options,
    const std::vector<neuro::Vec3>& field, int applies);

/// One scan driven stage by stage, with the counts its layers report.
struct DrivenScan {
  neuro::core::PipelineResult result;
  DrivenFem fem;
  bool used_ladder = false;  ///< the driven solve failed; the library ladder ran
  int reg_evaluations = 0;
  std::int64_t seg_voxels = 0;  ///< voxels classified (both segmentations)
  int surface_iterations = 0;   ///< both active-surface passes
};

/// Runs one intraoperative scan through the layers' public functions in
/// core::run_intraop_pipeline's order, reproducing its forward and backward
/// fields, warped image and FEM field byte for byte (the Fig. 6 timeline and
/// the obs gauges aside). Requires an unlimited deadline.
DrivenScan drive_scan(const neuro::ImageF& preop, const neuro::ImageL& preop_labels,
                      const neuro::ImageF& intraop,
                      const neuro::core::PipelineConfig& config,
                      const std::vector<neuro::seg::Prototype>* reuse_prototypes,
                      const std::vector<neuro::Vec3>* last_good,
                      SpanRecorder* recorder, int request);

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// FNV-1a digest of a vector's bytes, chained from `hash`.
template <typename T>
std::uint64_t digest(const std::vector<T>& v, std::uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

/// The outputs the byte-for-byte checks compare: FEM node field, forward and
/// backward voxel fields, warped preop image.
bool same_outputs(const neuro::core::PipelineResult& a,
                  const neuro::core::PipelineResult& b);
/// Digest of the same outputs, for comparing a run's repeats without keeping
/// a copy of the first.
std::uint64_t output_digest(const neuro::core::PipelineResult& r);

}  // namespace pipebench
