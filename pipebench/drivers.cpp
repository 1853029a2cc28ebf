#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "base/deadline.h"
#include "base/status.h"
#include "core/deformation_field.h"
#include "fem/assembly.h"
#include "fem/boundary.h"
#include "fem/degradation.h"
#include "fem/field_validation.h"
#include "image/components.h"
#include "image/distance.h"
#include "image/filters.h"
#include "par/communicator.h"
#include "solver/preconditioner.h"

namespace pipebench {

using namespace neuro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void require_csr_path(const fem::DeformationSolveOptions& options) {
  if (options.backend != fem::MatrixBackend::kCsrReference || options.mixed_precision ||
      !options.nodal_loads.empty() || options.fault_injection.active()) {
    throw std::invalid_argument(
        "drive_fem: only the scalar-CSR path without nodal loads, mixed precision "
        "or fault injection is driven");
  }
}

solver::SolveStats krylov(const fem::DeformationSolveOptions& options,
                          const solver::LinearOperator& A, const solver::DistVector& b,
                          solver::DistVector& x, const solver::Preconditioner& M,
                          par::Communicator& comm) {
  switch (options.krylov) {
    case fem::KrylovKind::kGmres:
      return solver::gmres(A, b, x, M, options.solver, comm);
    case fem::KrylovKind::kCg:
      return solver::cg(A, b, x, M, options.solver, comm);
    case fem::KrylovKind::kBicgstab:
      return solver::bicgstab(A, b, x, M, options.solver, comm);
  }
  throw std::invalid_argument("drive_fem: unknown Krylov kind");
}

}  // namespace

DrivenFem drive_fem(const mesh::TetMesh& mesh, const fem::MaterialMap& materials,
                    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
                    const fem::DeformationSolveOptions& options,
                    SpanRecorder* recorder, int request) {
  require_csr_path(options);
  if (options.nranks < 1 || prescribed.empty()) {
    throw std::invalid_argument("drive_fem: needs nranks >= 1 and prescribed nodes");
  }
  DrivenFem out;
  fem::DeformationResult& result = out.result;
  Span solve_span(recorder, "fem.solve_deformation", request);

  const auto init_start = std::chrono::steady_clock::now();
  Span setup_span(recorder, "fem.setup", request);
  const fem::DirichletSet bc = fem::DirichletSet::from_node_displacements(prescribed);
  const mesh::Partition partition =
      fem::make_partition(mesh, bc, options.partition, options.nranks);
  const fem::MeshTopology topo = fem::MeshTopology::build(mesh);
  setup_span.close();
  result.wall_init_s = seconds_since(init_start);
  result.num_equations = 3 * mesh.num_nodes();
  result.num_fixed_dofs = static_cast<int>(bc.size());
  for (const Rank r : partition.rank_ids()) {
    result.nodes_per_rank.push_back(partition.nodes_of(r));
    const auto [nb, ne] = partition.ranges[r];
    result.fixed_dofs_per_rank.push_back(
        bc.count_in_range(fem::dof_of(nb, 0), fem::dof_of(ne, 0)));
  }

  const auto P = static_cast<std::size_t>(options.nranks);
  std::vector<par::WorkRecord> assemble_work(P);
  std::vector<par::WorkRecord> bc_work(P);
  std::vector<par::WorkRecord> solve_work(P);
  std::vector<double> assemble_s(P, 0.0);
  std::vector<double> bc_s(P, 0.0);
  std::vector<double> solve_s(P, 0.0);
  std::vector<Vec3> displacements(static_cast<std::size_t>(mesh.num_nodes()));
  const int parent = solve_span.id();

  par::SpmdOptions spmd;
  spmd.fault = options.fault_injection;
  par::run_spmd(options.nranks, [&](par::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    // Rank 0 speaks for the team: its spans nest under the caller's.
    SpanRecorder* rec = comm.rank() == 0 ? recorder : nullptr;
    Span rank_span(rec, "fem.spmd_rank0", request, parent);
    const auto barrier = [&] {
      Span wait(rec, "par.barrier", request);
      comm.barrier();
    };
    comm.work().take();

    barrier();
    auto phase_start = std::chrono::steady_clock::now();
    Span assemble_span(rec, "fem.assemble_elasticity", request);
    fem::LocalSystem csr = fem::assemble_elasticity(mesh, topo, materials, partition,
                                                    options.body_force, comm);
    assemble_span.close();
    barrier();
    assemble_s[r] = seconds_since(phase_start);
    assemble_work[r] = comm.work().take();

    phase_start = std::chrono::steady_clock::now();
    Span bc_span(rec, "fem.apply_dirichlet", request);
    fem::apply_dirichlet(csr, bc, comm);
    bc_span.close();
    barrier();
    bc_s[r] = seconds_since(phase_start);
    bc_work[r] = comm.work().take();

    phase_start = std::chrono::steady_clock::now();
    Span finalize_span(rec, "solver.operator_setup", request);
    csr.A.drop_zeros();
    csr.A.setup_ghosts(comm);
    finalize_span.close();
    const auto pc_start = std::chrono::steady_clock::now();
    Span pc_span(rec, "solver.make_preconditioner", request);
    const std::unique_ptr<solver::Preconditioner> precond = solver::make_preconditioner(
        options.preconditioner, csr.A, comm, options.schwarz_overlap,
        solver::SchwarzPrecision::kDouble);
    pc_span.close();
    const double pc_setup_s = seconds_since(pc_start);
    solver::DistVector x(csr.b.global_size(), csr.b.range(), 0.0);
    const auto krylov_start = std::chrono::steady_clock::now();
    Span krylov_span(rec, "solver.krylov", request);
    const solver::SolveStats stats = krylov(options, csr.A, csr.b, x, *precond, comm);
    krylov_span.close();
    const double krylov_s = seconds_since(krylov_start);
    barrier();
    solve_s[r] = seconds_since(phase_start);
    solve_work[r] = comm.work().take();

    Span collect_span(rec, "fem.collect_field", request);
    for (const mesh::NodeId n : partition.ranges[comm.rank_id()]) {
      displacements[n.index()] = {x[fem::row_of(fem::dof_of(n, 0))],
                                  x[fem::row_of(fem::dof_of(n, 1))],
                                  x[fem::row_of(fem::dof_of(n, 2))]};
    }
    if (comm.rank() == 0) {
      result.stats = stats;
      out.pc_setup_s = pc_setup_s;
      out.krylov_s = krylov_s;
    }
  }, spmd);

  result.node_displacements = std::move(displacements);
  result.work.record("assemble", std::move(assemble_work));
  result.work.record("bc", std::move(bc_work));
  result.work.record("solve", std::move(solve_work));
  result.wall_assemble_s = *std::max_element(assemble_s.begin(), assemble_s.end());
  result.wall_bc_s = *std::max_element(bc_s.begin(), bc_s.end());
  result.wall_solve_s = *std::max_element(solve_s.begin(), solve_s.end());
  return out;
}

OperatorProbe probe_operator(const mesh::TetMesh& mesh, const fem::MaterialMap& materials,
                             const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
                             const fem::DeformationSolveOptions& options,
                             const std::vector<Vec3>& field, int applies) {
  require_csr_path(options);
  const fem::DirichletSet bc = fem::DirichletSet::from_node_displacements(prescribed);
  const mesh::Partition partition =
      fem::make_partition(mesh, bc, options.partition, options.nranks);
  const fem::MeshTopology topo = fem::MeshTopology::build(mesh);
  OperatorProbe probe;
  par::run_spmd(options.nranks, [&](par::Communicator& comm) {
    fem::LocalSystem csr = fem::assemble_elasticity(mesh, topo, materials, partition,
                                                    options.body_force, comm);
    fem::apply_dirichlet(csr, bc, comm);
    csr.A.drop_zeros();
    csr.A.setup_ghosts(comm);
    solver::DistVector x(csr.b.global_size(), csr.b.range(), 0.0);
    for (const mesh::NodeId n : partition.ranges[comm.rank_id()]) {
      const Vec3& u = field[n.index()];
      x[fem::row_of(fem::dof_of(n, 0))] = u.x;
      x[fem::row_of(fem::dof_of(n, 1))] = u.y;
      x[fem::row_of(fem::dof_of(n, 2))] = u.z;
    }
    const double residual = solver::true_residual_norm(csr.A, csr.b, x, comm);
    const double b_norm = csr.b.norm2(comm);
    if (applies <= 0) {
      if (comm.rank() == 0) probe.true_relative_residual = residual / b_norm;
      return;
    }
    const std::unique_ptr<solver::Preconditioner> precond = solver::make_preconditioner(
        options.preconditioner, csr.A, comm, options.schwarz_overlap,
        solver::SchwarzPrecision::kDouble);
    solver::DistVector y(csr.b.global_size(), csr.b.range(), 0.0);
    comm.barrier();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < applies; ++i) csr.A.apply(x, y, comm);
    comm.barrier();
    const double apply_s = seconds_since(start);
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < applies; ++i) precond->apply(csr.b, y, comm);
    comm.barrier();
    const double pc_apply_s = seconds_since(start);
    if (comm.rank() == 0) {
      probe.true_relative_residual = residual / b_norm;
      probe.apply_ms = 1e3 * apply_s / applies;
      probe.pc_apply_ms = 1e3 * pc_apply_s / applies;
    }
  });
  return probe;
}

DrivenScan drive_scan(const ImageF& preop, const ImageL& preop_labels, const ImageF& intraop,
                      const core::PipelineConfig& config,
                      const std::vector<seg::Prototype>* reuse_prototypes,
                      const std::vector<Vec3>* last_good, SpanRecorder* recorder,
                      int request) {
  if (config.deadline_seconds != 0.0 || config.brain_labels.empty()) {
    throw std::invalid_argument(
        "drive_scan: needs an unlimited deadline and the brain label set");
  }
  DrivenScan driven;
  core::PipelineResult& result = driven.result;
  Span scan_span(recorder, "core.scan", request);

  // --- 1. Rigid registration ---
  if (config.do_rigid_registration) {
    Span span(recorder, "reg.register_rigid_mi", request);
    const auto rigid = reg::register_rigid_mi(intraop, preop, config.rigid);
    result.rigid = rigid.transform;
    result.rigid_mi = rigid.mutual_information;
    driven.reg_evaluations = rigid.metric_evaluations;
  }
  {
    Span span(recorder, "image.resample_rigid", request);
    result.aligned_preop = resample_rigid(preop, intraop, result.rigid);
  }
  {
    Span span(recorder, "image.resample_rigid_labels", request);
    ImageL grid(intraop.dims(), 0, intraop.spacing(), intraop.origin());
    result.aligned_preop_labels = resample_rigid_labels(preop_labels, grid, result.rigid);
  }

  // --- 2. Tissue classification, intraop then aligned preop ---
  {
    Span span(recorder, "seg.segment_intraop.intraop", request);
    result.segmentation = seg::segment_intraop(intraop, result.aligned_preop_labels,
                                               config.seg, nullptr, reuse_prototypes);
    result.intraop_brain_mask =
        seg::mask_of_labels(result.segmentation.labels, config.brain_labels);
  }
  {
    Span span(recorder, "seg.segment_intraop.preop", request);
    result.preop_classified_labels =
        seg::segment_intraop(result.aligned_preop, result.aligned_preop_labels, config.seg,
                             nullptr, &result.segmentation.prototypes)
            .labels;
  }
  driven.seg_voxels = 2 * static_cast<std::int64_t>(intraop.size());

  // --- 3. Surface displacement ---
  mesh::MesherConfig mesher = config.mesher;
  if (mesher.keep_labels.empty()) mesher.keep_labels = config.brain_labels;
  {
    Span span(recorder, "mesh.mesh_labeled_volume", request);
    result.brain_mesh = mesh::mesh_labeled_volume(result.aligned_preop_labels, mesher);
  }
  if (result.brain_mesh.num_tets() == 0) {
    throw std::runtime_error("drive_scan: empty brain mesh");
  }
  {
    Span span(recorder, "mesh.extract_boundary_surface", request);
    result.preop_surface =
        mesh::extract_boundary_surface(result.brain_mesh, config.brain_labels);
  }
  const auto& match_labels = config.surface_match_labels.empty()
                                 ? config.brain_labels
                                 : config.surface_match_labels;
  ImageL preop_brain_mask;
  ImageL intraop_match_mask;
  {
    Span span(recorder, "seg.mask_of_labels", request);
    preop_brain_mask = seg::mask_of_labels(result.preop_classified_labels, match_labels);
    intraop_match_mask = seg::mask_of_labels(result.segmentation.labels, match_labels);
  }
  if (config.clean_masks) {
    Span span(recorder, "image.keep_largest_component", request);
    preop_brain_mask = keep_largest_component(preop_brain_mask);
    intraop_match_mask = keep_largest_component(intraop_match_mask);
  }
  ImageF sdf_pre;
  ImageF sdf_intra;
  {
    Span span(recorder, "image.signed_distance_to_label", request);
    sdf_pre = signed_distance_to_label(preop_brain_mask, 1, config.sdf_saturation_mm);
    sdf_intra = signed_distance_to_label(intraop_match_mask, 1, config.sdf_saturation_mm);
  }
  {
    Span span(recorder, "image.gaussian_smooth", request);
    sdf_pre = gaussian_smooth(sdf_pre, 0.8);
    sdf_intra = gaussian_smooth(sdf_intra, 0.8);
  }
  {
    Span span(recorder, "surface.deform_to_distance_field", request);
    const auto snapped =
        surface::deform_to_distance_field(result.preop_surface, sdf_pre, config.active_surface);
    result.surface_match = surface::deform_to_distance_field(snapped.surface, sdf_intra,
                                                             config.active_surface);
    driven.surface_iterations = snapped.iterations + result.surface_match.iterations;
    for (const mesh::VertId v : result.surface_match.displacements.ids()) {
      result.surface_match.displacements[v] =
          result.surface_match.surface.vertices[v] - snapped.surface.vertices[v];
    }
  }
  result.surface_match.surface.mesh_nodes = result.preop_surface.mesh_nodes;
  {
    Span span(recorder, "surface.smooth_vertex_vectors", request);
    surface::smooth_vertex_vectors(result.surface_match.surface,
                                   result.surface_match.displacements,
                                   config.surface_smoothing_iterations);
  }

  // --- 4. Biomechanical simulation: the ladder's rung 0, driven ---
  const auto materials = config.heterogeneous_materials
                             ? fem::MaterialMap::heterogeneous_brain()
                             : fem::MaterialMap::homogeneous_brain();
  const auto prescribed = surface::node_displacements(result.surface_match);
  fem::DegradationOptions degrade = config.degradation;
  if (last_good != nullptr) degrade.last_good = last_good;
  driven.fem = drive_fem(result.brain_mesh, materials, prescribed, config.fem, recorder,
                         request);
  fem::FieldValidationReport validation;
  if (driven.fem.result.stats.converged) {
    Span span(recorder, "fem.validate_displacement_field", request);
    validation = fem::validate_displacement_field(
        result.brain_mesh, driven.fem.result.node_displacements, degrade.validation);
  }
  if (driven.fem.result.stats.converged && validation.ok()) {
    result.fem = driven.fem.result;
    result.degradation.validation = validation;
  } else {
    // Rung 0 failed: the library ladder decides, exactly as the pipeline does.
    Span span(recorder, "fem.solve_deformation_with_fallback", request);
    driven.used_ladder = true;
    auto outcome = fem::solve_deformation_with_fallback(result.brain_mesh, materials,
                                                        prescribed, config.fem, degrade,
                                                        base::DeadlineBudget(0.0));
    if (!outcome.ok()) throw base::StatusError(outcome.status());
    result.fem = std::move(outcome.value().deformation);
    result.degradation = std::move(outcome.value().report);
  }

  // --- 5. Visualization resample ---
  ImageL support;
  {
    Span span(recorder, "core.rasterize_displacements", request);
    result.forward_field = core::rasterize_displacements(
        result.brain_mesh, result.fem.node_displacements, intraop, &support);
  }
  ImageV extended = result.forward_field;
  const double max_disp = core::field_stats(result.forward_field).max_mm;
  const double min_spacing =
      std::min({intraop.spacing().x, intraop.spacing().y, intraop.spacing().z});
  const int passes = std::min(24, static_cast<int>(max_disp / min_spacing) + 3);
  {
    Span span(recorder, "core.extend_displacement_field", request);
    core::extend_displacement_field(extended, support, passes);
  }
  {
    Span span(recorder, "core.invert_displacement_field", request);
    result.backward_field = core::invert_displacement_field(extended);
  }
  {
    Span span(recorder, "core.warp_backward", request);
    result.warped_preop = core::warp_backward(result.aligned_preop, result.backward_field);
  }
  return driven;
}

bool same_outputs(const core::PipelineResult& a, const core::PipelineResult& b) {
  return same_bytes(a.fem.node_displacements, b.fem.node_displacements) &&
         same_bytes(a.forward_field.data(), b.forward_field.data()) &&
         same_bytes(a.backward_field.data(), b.backward_field.data()) &&
         same_bytes(a.warped_preop.data(), b.warped_preop.data());
}

std::uint64_t output_digest(const core::PipelineResult& r) {
  std::uint64_t hash = digest(r.fem.node_displacements);
  hash = digest(r.forward_field.data(), hash);
  hash = digest(r.backward_field.data(), hash);
  return digest(r.warped_preop.data(), hash);
}

}  // namespace pipebench
