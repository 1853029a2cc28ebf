// Tests for the observability subsystem (src/obs/): span nesting and
// attributes, the disabled-path no-op contract, deterministic multi-rank
// merge, histogram bucket semantics, NDJSON export, and — the property the
// whole design hangs on — that tracing a pipeline run changes nothing about
// its numerical result.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"

namespace neuro::obs {
namespace {

constexpr bool kObsCompiledIn =
#ifdef NEURO_OBS_DISABLED
    false;
#else
    true;
#endif

/// Busy-waits so span durations are reliably nonzero without sleeping.
void spin_for_us(double us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() < us) {
  }
}

const Attr* find_attr(const TraceEvent& e, std::string_view key) {
  for (const auto& a : e.attrs) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

TEST(Span, NestsAndCarriesAttributes) {
  if (!kObsCompiledIn) GTEST_SKIP() << "built with NEURO_OBS=OFF";
  Tracer tracer(true);
  {
    Span outer = tracer.span("outer");
    spin_for_us(20.0);
    {
      Span inner = tracer.span("inner");
      inner.attr("iteration", std::int64_t{7});
      inner.attr("residual", 1.25e-6);
      inner.attr("rung", "reduced_mesh");
      spin_for_us(20.0);
    }
    spin_for_us(20.0);
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Merge order is (rank, ts, -dur, seq): the enclosing span sorts first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_EQ(outer.rank, -1);  // main thread, no SPMD region
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);

  const Attr* iteration = find_attr(inner, "iteration");
  ASSERT_NE(iteration, nullptr);
  EXPECT_EQ(iteration->kind, Attr::Kind::kInt);
  EXPECT_EQ(iteration->i, 7);
  const Attr* residual = find_attr(inner, "residual");
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->kind, Attr::Kind::kDouble);
  EXPECT_EQ(residual->d, 1.25e-6);
  const Attr* rung = find_attr(inner, "rung");
  ASSERT_NE(rung, nullptr);
  EXPECT_EQ(rung->kind, Attr::Kind::kString);
  EXPECT_EQ(rung->s, "reduced_mesh");
}

TEST(Span, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Span span = tracer.span("never");
    EXPECT_FALSE(span.active());
    span.attr("ignored", 1.0);  // must be a no-op, not a crash
    EXPECT_EQ(span.seconds(), 0.0);  // inert span never reads the clock
  }
  tracer.counter("also_never", 3.0);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Span, TimedSpanMeasuresWhileDisabled) {
  // The pipeline's StageTiming rows read timed_span even in the clinical
  // (untraced) configuration: the stopwatch half must keep working.
  Tracer tracer(false);
  Span span = tracer.timed_span("stage");
  EXPECT_FALSE(span.active());
  spin_for_us(50.0);
  EXPECT_GT(span.seconds(), 0.0);
  const double total = span.close();
  EXPECT_GE(total, 50e-6 * 0.5);  // generous: coarse clocks round down
  EXPECT_EQ(span.close(), total);  // idempotent
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ScopedThreadRankTest, BindsAndRestores) {
  EXPECT_EQ(thread_rank(), -1);
  {
    ScopedThreadRank outer_rank(3);
    EXPECT_EQ(thread_rank(), 3);
    {
      ScopedThreadRank inner_rank(5);
      EXPECT_EQ(thread_rank(), 5);
    }
    EXPECT_EQ(thread_rank(), 3);
  }
  EXPECT_EQ(thread_rank(), -1);
}

TEST(Tracer, StreamCapTruncatesAndIsReportedPerThread) {
  if (!kObsCompiledIn) GTEST_SKIP() << "built with NEURO_OBS=OFF";
  Tracer::Options options;
  options.max_events_per_stream = 4;
  Tracer tracer(true, options);
  const auto worker = [&tracer](int rank, int n) {
    ScopedThreadRank scoped(rank);
    for (int i = 0; i < n; ++i) tracer.span("s").close();
  };
  std::thread rank0(worker, 0, 10);  // drops 6
  std::thread rank1(worker, 1, 7);   // drops 3
  rank0.join();
  rank1.join();
  EXPECT_EQ(tracer.event_count(), 8u);
  EXPECT_EQ(tracer.dropped_count(), 9u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  // Loss is attributed per thread, not as one process-wide flag: an instant
  // on each affected rank's track with its own drop count, plus a matching
  // "trace_dropped" counter series.
  EXPECT_NE(trace.find(R"("trace_truncated","args":{"dropped":6,"rank":0})"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("trace_truncated","args":{"dropped":3,"rank":1})"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("trace_dropped","args":{"value":6})"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("trace_dropped","args":{"value":3})"),
            std::string::npos);
}

TEST(Tracer, MultiRankMergeIsDeterministic) {
  if (!kObsCompiledIn) GTEST_SKIP() << "built with NEURO_OBS=OFF";
  Tracer tracer(true);
  const auto body = [&tracer](par::Communicator&) {
    for (int i = 0; i < 3; ++i) {
      Span span = tracer.span("work");
      span.attr("step", i);
      spin_for_us(20.0);
    }
  };
  par::run_spmd(4, body);
  const std::vector<TraceEvent> first = tracer.snapshot();
  tracer.clear();
  par::run_spmd(4, body);
  const std::vector<TraceEvent> second = tracer.snapshot();

  ASSERT_EQ(first.size(), 12u);
  ASSERT_EQ(second.size(), 12u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Timestamps differ run to run; the merged structure may not.
    EXPECT_EQ(first[i].rank, second[i].rank) << i;
    EXPECT_EQ(first[i].name, second[i].name) << i;
    const Attr* a = find_attr(first[i], "step");
    const Attr* b = find_attr(second[i], "step");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->i, b->i) << i;
  }
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_GE(first[i].rank, first[i - 1].rank);  // grouped by rank...
    if (first[i].rank == first[i - 1].rank) {     // ...time-ordered within
      EXPECT_GE(first[i].ts_us, first[i - 1].ts_us);
    }
  }
}

TEST(Tracer, ChromeTraceExportShape) {
  if (!kObsCompiledIn) GTEST_SKIP() << "built with NEURO_OBS=OFF";
  Tracer tracer(true);
  {
    Span span = tracer.span("solve");
    span.attr("residual", 0.5);
    spin_for_us(10.0);
  }
  tracer.counter("gmres.residual", 0.25);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"process_name")"), std::string::npos);
  // Main-thread events land on tid 0, which must be named "main".
  EXPECT_NE(trace.find(R"("tid":0,"name":"thread_name","args":{"name":"main"})"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"solve")"), std::string::npos);
  EXPECT_NE(trace.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"gmres.residual","args":{"value":0.25})"),
            std::string::npos);
  EXPECT_EQ(trace.find("trace_truncated"), std::string::npos);
}

TEST(Metrics, HistogramBucketsAreLeInclusive) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 2.0, 5.0});
  h.observe(1.0);  // on-edge lands in its bucket (Prometheus "le")
  h.observe(1.5);
  h.observe(5.0);
  h.observe(6.0);  // past the last edge
  EXPECT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.count_in_bucket(0), 1);
  EXPECT_EQ(h.count_in_bucket(1), 1);
  EXPECT_EQ(h.count_in_bucket(2), 1);
  EXPECT_EQ(h.overflow_count(), 1);
  EXPECT_EQ(h.total_count(), 4);
  EXPECT_EQ(h.sum(), 13.5);
  // Re-lookup returns the same instrument; the original edges stand.
  EXPECT_EQ(&registry.histogram("lat", {99.0}), &h);
  EXPECT_EQ(h.upper_edge(0), 1.0);
}

TEST(Metrics, NdjsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.counter("events").add(42);
  registry.gauge("load").set(0.1);
  Histogram& h = registry.histogram("lat", {1.0, 2.5});
  h.observe(0.5);
  h.observe(2.5);
  h.observe(7.0);

  std::ostringstream os;
  registry.write_ndjson(os);
  EXPECT_EQ(os.str(),
            "{\"name\":\"events\",\"type\":\"counter\",\"value\":42}\n"
            "{\"name\":\"lat\",\"type\":\"histogram\",\"buckets\":"
            "[{\"le\":1,\"count\":1},{\"le\":2.5,\"count\":1}],"
            "\"overflow\":1,\"count\":3,\"sum\":10}\n"
            "{\"name\":\"load\",\"type\":\"gauge\",\"value\":"
            "0.10000000000000001}\n");
  // The 17-significant-digit gauge value parses back to the exact double.
  EXPECT_EQ(std::strtod("0.10000000000000001", nullptr), 0.1);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(TraceEnv, TruthinessMatchesConvention) {
  const char* saved = std::getenv("NEURO_TRACE");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("NEURO_TRACE");
  EXPECT_FALSE(trace_enabled_by_env());
  ::setenv("NEURO_TRACE", "", 1);
  EXPECT_FALSE(trace_enabled_by_env());
  ::setenv("NEURO_TRACE", "0", 1);
  EXPECT_FALSE(trace_enabled_by_env());
  ::setenv("NEURO_TRACE", "1", 1);
  EXPECT_EQ(trace_enabled_by_env(), kObsCompiledIn);
  ::setenv("NEURO_TRACE", "on", 1);
  EXPECT_EQ(trace_enabled_by_env(), kObsCompiledIn);

  if (saved != nullptr) {
    ::setenv("NEURO_TRACE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("NEURO_TRACE");
  }
}

TEST(PipelineTracing, StageSpansCarryRegistrationAndClassificationCounts) {
  if (!kObsCompiledIn) GTEST_SKIP() << "built with NEURO_OBS=OFF";
  phantom::PhantomConfig pcfg;
  pcfg.dims = {32, 32, 32};
  pcfg.spacing = {3.5, 3.5, 3.5};
  const phantom::PhantomCase cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  core::PipelineConfig config = core::default_pipeline_config();
  config.rigid.pyramid_levels = 2;
  global().set_enabled(true);
  const core::PipelineResult result =
      core::run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  global().set_enabled(false);
  const std::vector<TraceEvent> events = global().snapshot();
  global().clear();

  const auto find_span = [&](const std::string& name) -> const TraceEvent* {
    for (const auto& e : events) {
      if (e.kind == TraceEvent::Kind::kSpan && e.name == name) return &e;
    }
    return nullptr;
  };
  const auto attr = [](const TraceEvent& e, const std::string& key) -> const Attr* {
    for (const auto& a : e.attrs) {
      if (a.key == key) return &a;
    }
    return nullptr;
  };

  const TraceEvent* reg = find_span("pipeline.rigid.register_mi");
  ASSERT_NE(reg, nullptr);
  const Attr* evals = attr(*reg, "evals");
  ASSERT_NE(evals, nullptr);
  std::int64_t level_sum = 0;
  for (const char* level : {"level0", "level1"}) {
    const Attr* level_evals = attr(*reg, std::string(level) + ".evals");
    const Attr* level_mi = attr(*reg, std::string(level) + ".mi");
    ASSERT_NE(level_evals, nullptr) << level;
    ASSERT_NE(level_mi, nullptr) << level;
    EXPECT_GT(level_evals->i, 0);
    EXPECT_GT(level_mi->d, 0.0);
    level_sum += level_evals->i;
  }
  EXPECT_EQ(evals->i, level_sum);
  EXPECT_EQ(attr(*reg, "level1.mi")->d, result.rigid_mi);  // finest level last

  for (const char* name : {"pipeline.seg.intraop", "pipeline.seg.preop"}) {
    const TraceEvent* seg = find_span(name);
    ASSERT_NE(seg, nullptr) << name;
    const Attr* voxels = attr(*seg, "voxels");
    const Attr* prototypes = attr(*seg, "prototypes");
    ASSERT_NE(voxels, nullptr) << name;
    ASSERT_NE(prototypes, nullptr) << name;
    EXPECT_EQ(voxels->i, 32 * 32 * 32);
    EXPECT_EQ(prototypes->i,
              static_cast<std::int64_t>(result.segmentation.prototypes.size()));
  }
}

TEST(PipelineTracing, TracedRunIsBitIdentical) {
  // The acceptance property of ISSUE 5: enabling tracing must not perturb
  // the computation. Run the same small phantom pipeline untraced and
  // traced and require the recovered displacement field to match bit for
  // bit (instrumentation reads clocks and work counters; it never
  // communicates or touches the arithmetic).
  phantom::PhantomConfig pcfg;
  pcfg.dims = {48, 48, 48};
  pcfg.spacing = {2.5, 2.5, 2.5};
  const phantom::PhantomCase cas =
      phantom::make_case(pcfg, phantom::ShiftConfig{});

  core::PipelineConfig config = core::default_pipeline_config();
  config.do_rigid_registration = false;
  config.mesher.stride = 4;
  config.fem.nranks = 2;

  const core::PipelineResult baseline = core::run_intraop_pipeline(
      cas.preop, cas.preop_labels, cas.intraop, config);
  global().set_enabled(true);
  const core::PipelineResult traced = core::run_intraop_pipeline(
      cas.preop, cas.preop_labels, cas.intraop, config);
  global().set_enabled(false);

  if (kObsCompiledIn) {
    EXPECT_GT(global().event_count(), 0u);
    std::ostringstream os;
    global().write_chrome_trace(os);
    EXPECT_NE(os.str().find(R"("name":"pipeline.biomechanical_simulation")"),
              std::string::npos);
  }
  global().clear();

  const auto& a = baseline.forward_field.data();
  const auto& b = traced.forward_field.data();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0);
  EXPECT_EQ(baseline.fem.stats.iterations, traced.fem.stats.iterations);
  EXPECT_EQ(baseline.fem.stats.final_residual, traced.fem.stats.final_residual);

  // Regression for the convergence-history gate: the pipeline leaves
  // SolverConfig::record_history off, so no per-iteration history may be
  // allocated on the clinical path (telemetry reads it from the trace).
  EXPECT_TRUE(baseline.fem.stats.history.empty());
  EXPECT_TRUE(traced.fem.stats.history.empty());
}

}  // namespace
}  // namespace neuro::obs
