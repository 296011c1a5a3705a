// The determinism contract of the solver reuse layer (DESIGN.md §8):
// caching (FeaContext assembly reuse, CG warm starts, incremental net-box
// kernels) is allowed to change how fast answers arrive, never which
// placement comes out. Placements must be byte-identical with caching on
// vs. off, at any thread count, and for either CG preconditioner; the
// reuse itself must be visible as solver/* metrics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/synthetic.h"
#include "obs/metrics.h"
#include "place/monitor.h"
#include "place/placer.h"
#include "thermal/fea.h"
#include "util/log.h"

namespace p3d {
namespace {

netlist::Netlist Circuit(int cells, std::uint64_t seed) {
  io::SyntheticSpec spec;
  spec.name = "cache";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

place::PlacerParams ThermalParams() {
  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;  // exercise the thermal objective path
  params.partition_starts = 4;
  params.seed = 20260806;
  return params;
}

/// Drops metric lines keyed under cg/, solver/, and fea/ — the solver
/// accounting legitimately differs with caching on vs. off; everything else
/// (flow counters, audit counters, objective series) must not.
std::string FilterSolverMetrics(const std::string& dump) {
  std::istringstream in(dump);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("cg/") != std::string::npos) continue;
    if (line.find("solver/") != std::string::npos) continue;
    if (line.find("fea/") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

struct RunOutput {
  place::PlacementResult result;
  std::string metrics_dump;
  std::string filtered_dump;
};

RunOutput RunWith(const netlist::Netlist& nl, const place::PlacerParams& params,
                  const place::RunOptions& opts) {
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  place::Placer3D placer(nl, params);
  RunOutput out{.result = *placer.Run(opts)};
  obs::InstallMetrics(nullptr);
  out.metrics_dump = registry.DumpDeterministic();
  out.filtered_dump = FilterSolverMetrics(out.metrics_dump);
  return out;
}

void ExpectSamePlacement(const place::PlacementResult& a,
                         const place::PlacementResult& b) {
  EXPECT_EQ(a.placement.x, b.placement.x);
  EXPECT_EQ(a.placement.y, b.placement.y);
  EXPECT_EQ(a.placement.layer, b.placement.layer);
  EXPECT_EQ(a.hpwl_m, b.hpwl_m);
  EXPECT_EQ(a.ilv_count, b.ilv_count);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.legal, b.legal);
}

TEST(SolverCache, PlacementByteIdenticalCacheOnVsOff) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 21);
  const place::PlacerParams params = ThermalParams();

  // Per-phase FEA on, so the cached path actually solves repeatedly.
  const RunOutput cached = RunWith(
      nl, params,
      {.with_fea = true, .fea_per_phase = true, .use_solver_cache = true});
  const RunOutput uncached = RunWith(
      nl, params,
      {.with_fea = true, .fea_per_phase = true, .use_solver_cache = false});

  ExpectSamePlacement(cached.result, uncached.result);
  // Final-solve temperatures agree to solver tolerance (the cached run's
  // final solve is warm-started, so the CG iterates differ).
  EXPECT_NEAR(cached.result.avg_temp_c, uncached.result.avg_temp_c, 1e-4);
  EXPECT_NEAR(cached.result.max_temp_c, uncached.result.max_temp_c, 1e-4);
  // Everything outside the solver-accounting namespaces is identical.
  EXPECT_EQ(cached.filtered_dump, uncached.filtered_dump);
  EXPECT_FALSE(cached.filtered_dump.empty());
}

TEST(SolverCache, PlacementByteIdenticalThreads1Vs4WithCache) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 22);
  place::PlacerParams params = ThermalParams();

  params.threads = 1;
  const RunOutput r1 = RunWith(
      nl, params,
      {.with_fea = true, .fea_per_phase = true, .use_solver_cache = true});
  params.threads = 4;
  const RunOutput r4 = RunWith(
      nl, params,
      {.with_fea = true, .fea_per_phase = true, .use_solver_cache = true});

  ExpectSamePlacement(r1.result, r4.result);
  // The deterministic runtime makes CG bit-identical across thread counts,
  // so even the solver counters (iterations, warm-start savings) agree and
  // the full dumps compare equal.
  EXPECT_EQ(r1.result.avg_temp_c, r4.result.avg_temp_c);
  EXPECT_EQ(r1.result.max_temp_c, r4.result.max_temp_c);
  EXPECT_EQ(r1.result.fea_cg_iters, r4.result.fea_cg_iters);
  EXPECT_EQ(r1.metrics_dump, r4.metrics_dump);
}

TEST(SolverCache, PreconditionerChoiceDoesNotAffectPlacement) {
  // FEA is observational — it never feeds back into move decisions — so
  // switching the CG preconditioner must leave the placement untouched.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(250, 23);
  const place::PlacerParams params = ThermalParams();

  const RunOutput ic0 = RunWith(
      nl, params,
      {.with_fea = true, .preconditioner = linalg::PreconditionerKind::kIc0});
  const RunOutput jacobi =
      RunWith(nl, params,
              {.with_fea = true,
               .preconditioner = linalg::PreconditionerKind::kJacobi});

  ExpectSamePlacement(ic0.result, jacobi.result);
  ASSERT_TRUE(ic0.result.fea_valid);
  ASSERT_TRUE(jacobi.result.fea_valid);
  EXPECT_NEAR(ic0.result.avg_temp_c, jacobi.result.avg_temp_c, 1e-4);
  // IC(0) is the one doing less work.
  EXPECT_LT(ic0.result.fea_cg_iters, jacobi.result.fea_cg_iters);
}

TEST(SolverCache, ReuseIsVisibleInSolverMetrics) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(200, 24);
  const place::PlacerParams params = ThermalParams();

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  place::Placer3D placer(nl, params);
  const place::PlacementResult r = *placer.Run(
      {.with_fea = true, .fea_per_phase = true, .use_solver_cache = true});
  obs::InstallMetrics(nullptr);

  ASSERT_TRUE(r.fea_valid);
  EXPECT_GT(r.fea_solves, 1);
  // One assembly, many solves: every solve after the first is a cache hit,
  // and every one of those is warm-started.
  EXPECT_EQ(registry.Counter("solver/fea_rebuilds"), 1);
  EXPECT_EQ(registry.Counter("solver/fea_solves"), r.fea_solves);
  EXPECT_EQ(registry.Counter("solver/fea_cache_hits"), r.fea_solves - 1);
  EXPECT_EQ(registry.Counter("solver/warm_starts"), r.fea_solves - 1);
  EXPECT_GE(registry.Counter("solver/warm_iters_saved"), 0);
  // The incremental net-box kernel carried the commit hot path.
  EXPECT_GT(registry.Counter("solver/netbox_incremental_evals"), 0);
}

TEST(SolverCache, NetBoxKernelOnOffByteIdentical) {
  // The incremental bounds are exact min/max (never accumulated), so
  // disabling the kernel must not move a single byte of the placement.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 25);
  place::PlacerParams params = ThermalParams();

  params.incremental_net_boxes = true;
  place::Placer3D fast(nl, params);
  const place::PlacementResult rf = *fast.Run({.with_fea = false});
  const place::ObjectiveEvaluator::EvalStats stats =
      fast.evaluator().eval_stats();
  EXPECT_GT(stats.incremental_evals, 0);

  params.incremental_net_boxes = false;
  place::Placer3D slow(nl, params);
  const place::PlacementResult rs = *slow.Run({.with_fea = false});
  EXPECT_EQ(slow.evaluator().eval_stats().incremental_evals, 0);

  ExpectSamePlacement(rf, rs);
}

TEST(SolverCache, FeaContextWarmStartConvergesWithEveryPreconditioner) {
  // FeaContext on a thermal fixture: one assembly, warm-started re-solves,
  // deterministic cold restart after a geometry change, for either CG
  // preconditioner.
  thermal::ThermalStack stack;
  stack.num_layers = 3;
  const thermal::ChipExtent chip{1e-3, 1e-3};

  for (const linalg::PreconditionerKind kind :
       {linalg::PreconditionerKind::kJacobi, linalg::PreconditionerKind::kIc0}) {
    thermal::FeaContextOptions opt;
    opt.fea.nx = 10;
    opt.fea.ny = 10;
    opt.fea.bulk_elems = 3;
    opt.fea.cg.preconditioner = kind;
    thermal::FeaContext ctx(stack, chip, opt);

    std::vector<double> x{0.3e-3, 0.7e-3}, y{0.4e-3, 0.6e-3};
    std::vector<int> layer{0, 2};
    std::vector<double> power{0.05, 0.08};

    const thermal::FeaResult cold = ctx.Solve(x, y, layer, power);
    ASSERT_TRUE(cold.converged);
    EXPECT_GT(cold.avg_cell_temp, 0.0);

    // Slightly perturbed load: the warm start should not cost more
    // iterations than the cold solve, and the answer must still converge.
    power[0] = 0.06;
    const thermal::FeaResult warm = ctx.Solve(x, y, layer, power);
    ASSERT_TRUE(warm.converged);
    EXPECT_LE(warm.cg_iters, cold.cg_iters);

    EXPECT_EQ(ctx.stats().solves, 2);
    EXPECT_EQ(ctx.stats().rebuilds, 1);
    EXPECT_EQ(ctx.stats().cache_hits, 1);
    EXPECT_EQ(ctx.stats().warm_starts, 1);

    // Same geometry: Refresh is a no-op. New geometry: full rebuild.
    EXPECT_FALSE(ctx.Refresh(stack, chip));
    thermal::ThermalStack taller = stack;
    taller.num_layers = 4;
    EXPECT_TRUE(ctx.Refresh(taller, chip));
    EXPECT_EQ(ctx.stats().rebuilds, 2);
    std::vector<int> layer2{0, 3};
    const thermal::FeaResult after = ctx.Solve(x, y, layer2, power);
    ASSERT_TRUE(after.converged);
  }
}

TEST(SolverCache, NonConvergedSolveDoesNotPoisonWarmStart) {
  // Regression: FeaContext::Solve used to save the truncated iterate as the
  // warm-start seed even when the solve hit its iteration cap, so the next
  // solve silently continued from garbage. A failed solve must leave the
  // warm-start state empty (and be counted).
  thermal::ThermalStack stack;
  stack.num_layers = 2;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  thermal::FeaContextOptions opt;
  opt.fea.nx = 12;
  opt.fea.ny = 12;
  opt.fea.bulk_elems = 3;
  opt.fea.cg.max_iters = 1;  // force every solve to hit the cap

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  thermal::FeaContext ctx(stack, chip, opt);
  const std::vector<double> x{0.3e-3}, y{0.4e-3}, power{0.05};
  const std::vector<int> layer{1};

  const thermal::FeaResult r1 = ctx.Solve(x, y, layer, power);
  EXPECT_FALSE(r1.converged);
  const thermal::FeaResult r2 = ctx.Solve(x, y, layer, power);
  EXPECT_FALSE(r2.converged);
  obs::InstallMetrics(nullptr);

  // No warm start was recorded, so the two truncated solves both started
  // cold from zeros and are bit-identical.
  EXPECT_EQ(ctx.stats().warm_starts, 0);
  EXPECT_EQ(r1.node_temp, r2.node_temp);
  EXPECT_EQ(r1.cg_iters, r2.cg_iters);
  // Both failures are visible: per-context stats and the metrics counter
  // the anomaly monitor watches.
  EXPECT_EQ(ctx.stats().nonconverged, 2);
  EXPECT_EQ(registry.Counter("fea/nonconverged"), 2);
}

TEST(SolverCache, AnomalyMonitorFlagsFeaNonconvergence) {
  // The monitor reads the fea/nonconverged counter delta at every phase
  // boundary; any capped solve since the previous boundary flags an anomaly.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(100, 27);
  const place::PlacerParams params = ThermalParams();
  place::Placer3D placer(nl, params);
  place::AnomalyMonitor monitor;

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  monitor.OnPhase("global", -1, placer.evaluator(), nullptr);
  EXPECT_TRUE(monitor.anomalies().empty());
  obs::MetricAdd("fea/nonconverged", 1);  // what a capped solve records
  monitor.OnPhase("coarse", 0, placer.evaluator(), nullptr);
  obs::InstallMetrics(nullptr);

  ASSERT_EQ(monitor.anomalies().size(), 1u);
  EXPECT_EQ(monitor.anomalies()[0].kind, "fea_nonconverged");
  EXPECT_EQ(monitor.anomalies()[0].phase, "coarse");
  EXPECT_EQ(monitor.anomalies()[0].detail, 1.0);
  EXPECT_EQ(registry.Counter("anomaly/fea_nonconverged"), 1);
}

TEST(SolverCache, PerPassByteIdenticalThreads1Vs8) {
  // Per-pass thermal on the cached IC(0) path: placements stay
  // byte-identical at any thread count, and so does every deterministic
  // counter (CG iterations included).
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 26);
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;

  params.threads = 1;
  const RunOutput r1 = RunWith(
      nl, params,
      {.with_fea = true,
       .fea_per_phase = true,
       .use_solver_cache = true,
       .preconditioner = linalg::PreconditionerKind::kIc0});
  params.threads = 8;
  const RunOutput r8 = RunWith(
      nl, params,
      {.with_fea = true,
       .fea_per_phase = true,
       .use_solver_cache = true,
       .preconditioner = linalg::PreconditionerKind::kIc0});

  ExpectSamePlacement(r1.result, r8.result);
  EXPECT_EQ(r1.result.avg_temp_c, r8.result.avg_temp_c);
  EXPECT_EQ(r1.result.max_temp_c, r8.result.max_temp_c);
  EXPECT_EQ(r1.result.fea_cg_iters, r8.result.fea_cg_iters);
  EXPECT_EQ(r1.result.fea_nonconverged, 0);
  EXPECT_EQ(r1.metrics_dump, r8.metrics_dump);
  // The per-pass hooks actually fired.
  EXPECT_NE(r1.metrics_dump.find("fea/pass_solves"), std::string::npos);
  EXPECT_GT(r1.result.fea_solves, 2);
}

}  // namespace
}  // namespace p3d
