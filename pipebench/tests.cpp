// The benchmark's own tests: the stage and FEM drivers reproduce the library
// entry points byte for byte at small sizes, and the self-time arithmetic is
// right on a hand-built span tree. Run with `python3 pipebench/run.py
// --self-test`, which also checks the metric table against BENCHMARK.json.
#include <gtest/gtest.h>

#include "common.h"
#include "core/pipeline.h"
#include "drivers.h"
#include "phantom/brain_phantom.h"
#include "spans.h"

namespace pipebench {
namespace {

using namespace neuro;

SpanRecord span(int id, int parent, double start, double end) {
  SpanRecord s;
  s.name = "test.span" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // root [0,10] has children a [1,4] and b [3,6] (overlapping, as spans of
  // two threads may) and c [9,12], which outlives the root; a has child g.
  const std::vector<SpanRecord> spans = {
      span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0),
      span(3, 0, 9.0, 12.0),  span(4, 1, 2.0, 3.0),
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);  // covered: [1,6] and [9,10]
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTimes, LeafAndSiblingTreesSumToTheRootDuration) {
  const std::vector<SpanRecord> spans = {
      span(0, -1, 0.0, 8.0), span(1, 0, 0.5, 2.5), span(2, 0, 3.0, 7.0),
      span(3, 2, 3.5, 4.0),  span(4, 2, 5.0, 6.5),
  };
  const std::vector<double> self = self_times(spans);
  double sum = 0.0;
  for (const double s : self) sum += s;
  EXPECT_DOUBLE_EQ(sum, 8.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0 - 0.5 - 1.5);
}

TEST(SpanRecorder, ScopedSpansNestUnderTheInnermostOpenSpan) {
  SpanRecorder recorder;
  {
    Span outer(&recorder, "core.op", 7);
    Span inner(&recorder, "reg.work", 7);
  }
  Span other(&recorder, "seg.work", 8);
  other.close();
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[1].request, 7);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
}

TEST(SpanRecorder, NullRecorderRecordsNothing) {
  Span s(nullptr, "core.op", 1);
  EXPECT_EQ(s.id(), -1);
}

core::PipelineConfig small_config() {
  core::PipelineConfig config = core::default_pipeline_config();
  config.mesher.stride = 4;
  config.fem.nranks = 2;
  return config;
}

TEST(StageDriver, ReproducesThePipelineByteForByteOverAScanSequence) {
  phantom::PhantomConfig pc;
  pc.dims = {36, 36, 36};
  pc.spacing = {3.2, 3.2, 3.2};
  pc.seed = 11;
  RigidTransform repositioning;
  repositioning.translation = {2.0, -1.0, 1.0};
  const auto scans = phantom::make_case_sequence(pc, phantom::ShiftConfig{}, {0.5, 1.0},
                                                 {repositioning, repositioning});
  const core::PipelineConfig config = small_config();

  // First scan selects the prototypes; the follow-up reuses them and carries
  // the last-good field, as SurgerySession does.
  const core::PipelineResult first = core::run_intraop_pipeline(
      scans[0].preop, scans[0].preop_labels, scans[0].intraop, config);
  const DrivenScan driven_first = drive_scan(scans[0].preop, scans[0].preop_labels,
                                             scans[0].intraop, config, nullptr, nullptr,
                                             nullptr, 0);
  EXPECT_FALSE(driven_first.used_ladder);
  EXPECT_TRUE(same_outputs(driven_first.result, first));
  EXPECT_GT(driven_first.reg_evaluations, 0);

  const auto& prototypes = first.segmentation.prototypes;
  const auto& last_good = first.fem.node_displacements;
  const core::PipelineResult second = core::run_intraop_pipeline(
      scans[1].preop, scans[1].preop_labels, scans[1].intraop, config, &prototypes,
      &last_good);
  SpanRecorder recorder;
  const DrivenScan driven_second =
      drive_scan(scans[1].preop, scans[1].preop_labels, scans[1].intraop, config,
                 &prototypes, &last_good, &recorder, 1);
  EXPECT_TRUE(same_outputs(driven_second.result, second));
  EXPECT_FALSE(recorder.spans().empty());
}

TEST(StageDriver, RejectsALimitedDeadline) {
  core::PipelineConfig config = small_config();
  config.deadline_seconds = 5.0;
  const ImageF empty;
  const ImageL labels;
  EXPECT_THROW((void)drive_scan(empty, labels, empty, config, nullptr, nullptr, nullptr, 0),
               std::invalid_argument);
}

TEST(FemDriver, ReproducesSolveDeformationByteForByte) {
  const bench::BrainProblem problem = bench::make_brain_problem(9000);
  const auto materials = fem::MaterialMap::homogeneous_brain();
  for (const int nranks : {1, 2}) {
    fem::DeformationSolveOptions options;
    options.nranks = nranks;
    const fem::DeformationResult library =
        fem::solve_deformation(problem.mesh, materials, problem.prescribed, options);
    SpanRecorder recorder;
    const DrivenFem driven =
        drive_fem(problem.mesh, materials, problem.prescribed, options, &recorder, 0);
    EXPECT_TRUE(same_bytes(driven.result.node_displacements, library.node_displacements))
        << "nranks " << nranks;
    EXPECT_EQ(driven.result.stats.iterations, library.stats.iterations);
    EXPECT_EQ(driven.result.num_equations, library.num_equations);

    const OperatorProbe probe = probe_operator(problem.mesh, materials, problem.prescribed,
                                               options, library.node_displacements, 2);
    EXPECT_LE(probe.true_relative_residual, options.solver.rtol);
    EXPECT_GT(probe.apply_ms, 0.0);
    EXPECT_GT(probe.pc_apply_ms, 0.0);
  }
}

TEST(FemDriver, RejectsABackendItDoesNotDrive) {
  const bench::BrainProblem problem = bench::make_brain_problem(9000);
  fem::DeformationSolveOptions options;
  options.backend = fem::MatrixBackend::kBsr;
  EXPECT_THROW((void)drive_fem(problem.mesh, fem::MaterialMap::homogeneous_brain(),
                               problem.prescribed, options, nullptr, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pipebench
