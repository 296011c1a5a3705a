// placer_bench — the repository's end-to-end and per-layer benchmark.
//
//   placer_bench --workload <lite20k|thermal64|serve_sweep> --seed <n>
//                --seconds <s> --trace <0|1>
//   placer_bench --selftest
//
// Untraced runs (--trace 0) time whole operations from outside: one
// Placer3D::Run per operation on the single-job workloads, one 24-job
// serve::RunSweep batch on serve_sweep. Operations repeat until --seconds
// have passed (at least one), and each timing is reported as the median.
//
// The traced run (--trace 1) runs Placer3D::Run once more and then replays
// it engine by engine through each engine's public entry point, in the order
// Run calls them, timing every call from outside. The replay must reproduce
// Run's placement bytes and its FEA solve and CG-iteration counts; when it
// does not, trace.replay_identical reads 0 and the per-layer numbers are
// stale.
//
// Every operation is checked: Status OK, legality by the independent
// overlap checker of src/check (plus bounds, rows, layers, finiteness),
// every FEA solve converged, repeated operations byte-identical, and on
// serve_sweep one job per layer count byte-identical to a standalone
// Placer3D::Run. Failed operations are counted against attempted ones.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "io/synthetic.h"
#include "netlist/netlist.h"
#include "obs/json.h"
#include "partition/hypergraph.h"
#include "partition/partitioner.h"
#include "place/global_backend.h"
#include "place/legalize.h"
#include "place/moveswap.h"
#include "place/placer.h"
#include "place/rowopt.h"
#include "place/shift.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using p3d::netlist::Netlist;
using p3d::place::Placement;
using p3d::place::PlacementResult;
using p3d::place::PlacerParams;
using p3d::place::RunOptions;
using p3d::util::Timer;

// ----- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tracks one operation's peak resident set: a background thread samples
/// /proc/self/statm every 10 ms until Stop(). (getrusage's
/// ru_maxrss is a process-lifetime maximum, so it cannot be taken per
/// operation.)
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Ends sampling and returns the highest resident set seen, in MB.
  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_bytes_) / (1024.0 * 1024.0);
  }

 private:
  static long long ResidentBytes() {
    long long size = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%lld %lld", &size, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    return resident * sysconf(_SC_PAGESIZE);
  }
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      peak_bytes_ = std::max(peak_bytes_, ResidentBytes());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [this] { return stop_; }));
    peak_bytes_ = std::max(peak_bytes_, ResidentBytes());
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  long long peak_bytes_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const MetricList& metrics) {
  using p3d::obs::JsonValue;
  JsonValue values = JsonValue::MakeObject();
  for (const Metric& m : metrics.items()) {
    JsonValue v = JsonValue::MakeObject();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    values.Set(m.name, std::move(v));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("correct", correct);
  doc.Set("attempted", attempted);
  doc.Set("failed", failed);
  doc.Set("metrics", std::move(values));
  std::printf("%s\n", doc.Serialize().c_str());
  std::fflush(stdout);
}

// ----- correctness -----------------------------------------------------------

/// FEA solve accounting for one operation: every solve must converge.
struct FeaTally {
  long long solves = 0;
  long long cg_iters = 0;
  long long nonconverged = 0;
  bool final_valid = false;  // the end-of-flow report solve converged

  void Add(const p3d::thermal::FeaResult& r) {
    ++solves;
    cg_iters += r.cg_iters;
    if (!r.converged) ++nonconverged;
    final_valid = r.converged;
  }
  static FeaTally Of(const PlacementResult& r) {
    return {r.fea_solves, r.fea_cg_iters, r.fea_nonconverged, r.fea_valid};
  }
};

/// Everything wrong with one finished placement, empty when it is legal and
/// its FEA converged. Legality is judged by src/check, not by the placer's
/// own overlap count.
std::vector<std::string> PlacementProblems(const Netlist& nl,
                                           const p3d::place::Chip& chip,
                                           const Placement& p,
                                           const FeaTally& fea,
                                           bool expect_fea) {
  namespace check = p3d::check;
  std::vector<std::string> problems;
  if (p.size() != static_cast<std::size_t>(nl.NumCells())) {
    problems.push_back("placement has the wrong number of cells");
    return problems;
  }
  std::vector<check::Violation> v;
  check::CheckFinite(nl, p, &v);
  check::CheckLayers(nl, p, chip.num_layers(), &v);
  check::CheckBounds(nl, chip, p, /*extents=*/true, &v);
  check::CheckRowAlignment(nl, chip, p, &v);
  check::CheckFixedOverlap(nl, p, &v);
  for (const check::Violation& x : v) {
    problems.push_back(x.check + ": " + x.message);
    if (problems.size() >= 3) break;
  }
  check::Violation first;
  const long long overlaps = check::CountOverlapsSweep(nl, p, &first);
  if (overlaps > 0) {
    problems.push_back(std::to_string(overlaps) + " overlapping pairs, e.g. " +
                       first.message);
  }
  if (fea.nonconverged > 0) {
    problems.push_back(std::to_string(fea.nonconverged) +
                       " FEA solve(s) hit the iteration cap");
  }
  if (expect_fea && !fea.final_valid) {
    problems.push_back("final FEA solve did not converge");
  }
  return problems;
}

/// Counts operations and the ones that failed a check.
class Ledger {
 public:
  void Record(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems) {
      std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), p.c_str());
    }
  }
  void Record(const std::string& what, const std::string& problem) {
    Record(what, std::vector<std::string>{problem});
  }
  /// A check that is not an operation of its own (determinism, replay
  /// agreement): a failure here fails the run without adding an attempt.
  void Check(bool ok, const std::string& problem) {
    if (ok) return;
    ++extra_failures_;
    std::fprintf(stderr, "FAIL %s\n", problem.c_str());
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && extra_failures_ == 0; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  long long extra_failures_ = 0;
};

bool SameBytes(const Placement& a, const Placement& b) {
  return a.x == b.x && a.y == b.y && a.layer == b.layer;
}

// ----- workloads -------------------------------------------------------------

struct SingleJob {
  p3d::io::SyntheticSpec spec;
  PlacerParams params;
  RunOptions options;
};

/// The lite scale-tier preset shrunk to 20,000 cells (scale 0.2) at 4
/// threads: coarse legalization dominates, FEA does one 24x24 solve.
SingleJob Lite20k(std::uint64_t seed) {
  constexpr double kScale = 0.2;
  SingleJob w;
  w.spec = p3d::io::ScaleTierSpec("lite");
  w.spec.num_cells =
      static_cast<std::int32_t>(std::lround(w.spec.num_cells * kScale));
  w.spec.total_area_m2 *= kScale;
  w.spec.seed = w.spec.seed * 1000003ULL + seed;
  w.params.num_layers = 4;
  w.params.alpha_ilv = 1e-5;
  w.params.alpha_temp = 0.0;
  w.params.global_backend = p3d::place::GlobalBackend::kBisection;
  w.params.threads = 4;
  w.params.seed = 12345 + seed;
  p3d::place::CompensateWireCapForScale(&w.params, kScale);
  w.options.with_fea = true;
  return w;
}

/// ibm05 at scale 0.1 with thermal placement on, a 64x64 FEA mesh, and a
/// solve after every pass and every phase, serial: FEA dominates. (At
/// 96x96 the solves leave the cache, one placement takes 18 s, and its time
/// swings by a third with the load of the shared host.)
SingleJob Thermal64(std::uint64_t seed) {
  constexpr double kScale = 0.1;
  SingleJob w;
  w.spec = p3d::io::Table1Spec("ibm05", kScale);
  w.spec.seed = w.spec.seed * 1000003ULL + seed;
  w.params.num_layers = 4;
  w.params.alpha_ilv = 1e-5;
  w.params.alpha_temp = 6.4e-6;
  w.params.threads = 1;
  w.params.fea_nx = 64;
  w.params.fea_ny = 64;
  w.params.fea_per_pass = true;
  w.params.seed = 12345 + seed;
  p3d::place::CompensateWireCapForScale(&w.params, kScale);
  w.options.with_fea = true;
  w.options.fea_per_phase = true;
  return w;
}

/// ibm01 at scale 0.2, swept over layers x alpha_ILV x alpha_TEMP as 24 jobs
/// on one 3-worker engine with one inner thread per job. (Three, not four:
/// the fourth core is left to the submitting thread and the host, whose
/// preemptions of a busy worker would otherwise show up in the job times.)
struct SweepWorkload {
  p3d::io::SyntheticSpec spec;
  PlacerParams base;
  RunOptions options;
  std::vector<int> layers = {2, 4};
  std::vector<double> alpha_ilv = {5e-9, 1.3e-6, 1e-5, 5.2e-3};
  std::vector<double> alpha_temp = {1e-7, 1e-6, 4.1e-5};
  int workers = 3;
  // The sweep point replayed and compared against a standalone run.
  double probe_alpha_ilv = 1e-5;
  double probe_alpha_temp = 1e-6;
};

SweepWorkload ServeSweep(std::uint64_t seed) {
  constexpr double kScale = 0.2;
  SweepWorkload w;
  w.spec = p3d::io::Table1Spec("ibm01", kScale);
  w.spec.seed = w.spec.seed * 1000003ULL + seed;
  w.base.seed = 12345 + seed;
  w.base.threads = 1;
  p3d::place::CompensateWireCapForScale(&w.base, kScale);
  w.options.with_fea = true;
  return w;
}

constexpr int kSetupRepeats = 51;
constexpr int kMaxOps = 64;

// ----- replay ----------------------------------------------------------------

struct Replay {
  Placement placement;
  FeaTally fea;
  double wall_s = 0.0;
  MetricList metrics;
};

/// Replays Placer3D::Run engine by engine on a fresh placer, timing each
/// public entry point from outside. Mirrors Run's call order, seeds, and
/// FEA schedule (solver cache on, as every workload runs it).
Replay ReplayRun(const Netlist& nl, const PlacerParams& params,
                 const RunOptions& options) {
  namespace pl = p3d::place;
  namespace th = p3d::thermal;
  Replay out;
  p3d::util::StatusOr<pl::Placer3D> created = pl::Placer3D::Create(nl, params);
  if (!created.ok()) return out;
  pl::ObjectiveEvaluator& eval = *created->mutable_evaluator();
  const PlacerParams& p = eval.params();  // stack synced by Create
  const pl::Chip& chip = created->chip();
  const pl::ObjectiveEvaluator::EvalStats evals_before = eval.eval_stats();

  double fea_build_s = 0.0, fea_solve_s = 0.0, power_s = 0.0;
  long long warm_starts = 0;
  Timer total;

  // FEA context, built up front exactly as Run's FeaRunner builds it.
  std::unique_ptr<th::FeaContext> ctx;
  if (options.use_solver_cache &&
      (options.with_fea || options.fea_per_phase || p.fea_per_pass)) {
    th::FeaContextOptions copt;
    copt.fea.nx = p.fea_nx;
    copt.fea.ny = p.fea_ny;
    copt.fea.cg.threads = p.threads;
    copt.fea.cg.preconditioner = options.preconditioner;
    copt.warm_start = options.warm_start;
    Timer t;
    ctx = std::make_unique<th::FeaContext>(
        p.stack, th::ChipExtent{chip.width(), chip.height()}, copt);
    fea_build_s = t.Seconds();
  }
  const auto solve_with_power = [&](const Placement& pp,
                                    const std::vector<double>& power) {
    Timer t;
    const th::FeaResult r = ctx->Solve(pp.x, pp.y, pp.layer, power);
    fea_solve_s += t.Seconds();
    out.fea.Add(r);
  };
  const auto solve = [&](const Placement& pp) {
    Timer t;
    const th::NetMetrics m = th::ComputeNetMetrics(nl, pp.x, pp.y, pp.layer);
    const th::PowerReport pw = th::ComputePower(nl, m, p.electrical);
    power_s += t.Seconds();
    solve_with_power(pp, pw.cell_power);
  };
  const auto phase_fea = [&] {
    if (options.fea_per_phase && ctx) solve(eval.placement());
  };
  const auto pass_fea = [&] {
    if (p.fea_per_pass && ctx) solve(eval.placement());
  };

  Placement initial = options.initial;
  if (initial.size() == 0) initial.Resize(static_cast<std::size_t>(nl.NumCells()));

  // Global placement.
  Timer t;
  auto backend = pl::MakeGlobalPlacerBackend(p.global_backend, eval);
  if (!backend.ok()) return out;
  p3d::util::StatusOr<Placement> gp = (*backend)->Run(initial);
  if (!gp.ok()) return out;
  eval.SetPlacement(*gp);
  const double global_s = t.Seconds();
  const pl::GlobalPlaceStats gstats = (*backend)->stats();
  const double global_objective = eval.Total();
  phase_fea();

  pl::MoveSwapOptimizer mso(eval, p.seed ^ 0xabcdef12345ULL);
  pl::CellShifter shifter(eval);
  pl::DetailedLegalizer legalizer(eval);
  pl::RowRefiner refiner(eval, p.seed ^ 0x5eed0123ULL);

  double ms_global_s = 0.0, ms_local_s = 0.0, shift_s = 0.0, legal_s = 0.0,
         rowopt_s = 0.0;
  pl::MoveSwapStats ms{};
  pl::ShiftStats ss{};
  pl::LegalizeStats ls_total{};
  pl::RowOptStats rs{};
  double before_shift = 0.0, after_shift = 0.0;

  Placement best;
  double best_objective = 0.0;
  bool have_best = false;
  for (int round = 0; round < std::max(p.legalization_repeats, 1); ++round) {
    for (int i = 0; i < std::max(p.moveswap_rounds, 1); ++i) {
      t.Reset();
      const pl::MoveSwapStats g = mso.RunGlobal(p.target_region_bins);
      ms_global_s += t.Seconds();
      t.Reset();
      const pl::MoveSwapStats l = mso.RunLocal();
      ms_local_s += t.Seconds();
      for (const pl::MoveSwapStats* s : {&g, &l}) {
        ms.moves += s->moves;
        ms.swaps += s->swaps;
        ms.proposals += s->proposals;
        ms.rejected += s->rejected;
        ms.gain += s->gain;
      }
      pass_fea();
    }
    if (round == 0) before_shift = eval.Total();
    t.Reset();
    ss = shifter.Run(p.shift_max_iters, p.shift_target_density);
    shift_s += t.Seconds();
    if (round == 0) after_shift = eval.Total();
    pass_fea();
    phase_fea();

    t.Reset();
    const pl::LegalizeStats ls = legalizer.Run();
    legal_s += t.Seconds();
    ls_total.placed += ls.placed;
    ls_total.squeezes += ls.squeezes;
    ls_total.deferred += ls.deferred;
    ls_total.total_displacement += ls.total_displacement;
    ls_total.max_radius_rows = std::max(ls_total.max_radius_rows, ls.max_radius_rows);
    phase_fea();
    pass_fea();
    if (ls.success) {
      t.Reset();
      const pl::RowOptStats r = refiner.Run(/*passes=*/2);
      rowopt_s += t.Seconds();
      rs.slides += r.slides;
      rs.reorders += r.reorders;
      rs.layer_swaps += r.layer_swaps;
      rs.gain += r.gain;
      phase_fea();
      pass_fea();
    }
    if (!have_best || eval.Total() < best_objective) {
      best = eval.placement();
      best_objective = eval.Total();
      have_best = true;
    } else {
      eval.SetPlacement(best);
    }
  }
  if (have_best) eval.SetPlacement(best);
  out.placement = eval.placement();

  // The final report solve, as Run's FillMetrics runs it.
  if (options.with_fea && ctx) {
    t.Reset();
    const Placement& fp = out.placement;
    const th::NetMetrics m = th::ComputeNetMetrics(nl, fp.x, fp.y, fp.layer);
    const th::PowerReport pw = th::ComputePower(nl, m, p.electrical);
    power_s += t.Seconds();
    solve_with_power(fp, pw.cell_power);
  }
  out.wall_s = total.Seconds();
  if (ctx) warm_starts = ctx->stats().warm_starts;

  const pl::ObjectiveEvaluator::EvalStats evals_after = eval.eval_stats();
  const double incremental = static_cast<double>(
      evals_after.incremental_evals - evals_before.incremental_evals);
  const double rescans =
      static_cast<double>(evals_after.rescan_evals - evals_before.rescan_evals);
  const pl::ObjectiveEvaluator::Components comp = eval.GetComponents();
  const double accepted = static_cast<double>(ms.moves + ms.swaps);

  MetricList& mt = out.metrics;
  mt.Add("global.s", global_s, "s");
  mt.Add("global.levels", gstats.bisection.levels, "count");
  mt.Add("global.partitions", gstats.bisection.partitions, "count");
  mt.Add("global.infeasible_partitions", gstats.bisection.infeasible_partitions,
         "count");
  mt.Add("global.objective", global_objective, "m");
  mt.Add("moveswap.global_s", ms_global_s, "s");
  mt.Add("moveswap.local_s", ms_local_s, "s");
  mt.Add("moveswap.proposals", static_cast<double>(ms.proposals), "count");
  mt.Add("moveswap.accepted", accepted, "count");
  mt.Add("moveswap.rejected", static_cast<double>(ms.rejected), "count");
  mt.Add("moveswap.accept_ratio",
         ms.proposals > 0 ? accepted / static_cast<double>(ms.proposals) : 0.0,
         "ratio");
  mt.Add("moveswap.gain", ms.gain, "m");
  mt.Add("shift.s", shift_s, "s");
  mt.Add("shift.iters", ss.iterations, "count");
  mt.Add("shift.final_max_density", ss.final_max_density, "ratio");
  mt.Add("shift.objective_ratio",
         before_shift > 0.0 ? after_shift / before_shift : 0.0, "ratio");
  mt.Add("legalize.s", legal_s, "s");
  mt.Add("legalize.deferred", static_cast<double>(ls_total.deferred), "count");
  mt.Add("legalize.squeezes", static_cast<double>(ls_total.squeezes), "count");
  mt.Add("legalize.displacement_m", ls_total.total_displacement, "m");
  mt.Add("legalize.max_radius_rows", ls_total.max_radius_rows, "rows");
  mt.Add("rowopt.s", rowopt_s, "s");
  mt.Add("rowopt.slides", static_cast<double>(rs.slides), "count");
  mt.Add("rowopt.reorders", static_cast<double>(rs.reorders), "count");
  mt.Add("rowopt.layer_swaps", static_cast<double>(rs.layer_swaps), "count");
  mt.Add("rowopt.gain", rs.gain, "m");
  mt.Add("objective.incremental_evals", incremental, "count");
  mt.Add("objective.rescan_evals", rescans, "count");
  mt.Add("objective.rescan_ratio",
         incremental + rescans > 0.0 ? rescans / (incremental + rescans) : 0.0,
         "ratio");
  mt.Add("quality.wl_m", comp.wl, "m");
  mt.Add("quality.ilv_count", static_cast<double>(comp.ilv_count), "count");
  mt.Add("quality.thermal", comp.thermal, "m");
  mt.Add("fea.build_s", fea_build_s, "s");
  mt.Add("fea.solve_s", fea_solve_s, "s");
  mt.Add("fea.solves", static_cast<double>(out.fea.solves), "count");
  mt.Add("fea.cg_iters", static_cast<double>(out.fea.cg_iters), "count");
  mt.Add("fea.iters_per_solve",
         out.fea.solves > 0 ? static_cast<double>(out.fea.cg_iters) /
                                  static_cast<double>(out.fea.solves)
                            : 0.0,
         "count");
  mt.Add("fea.warm_starts", static_cast<double>(warm_starts), "count");
  mt.Add("fea.nonconverged", static_cast<double>(out.fea.nonconverged), "count");
  mt.Add("power.s", power_s, "s");
  return out;
}

/// One standalone bipartition of the whole netlist hypergraph (movable cells
/// weighted by area, unit net weights), as the first bisection level sees
/// it before its terminal projection.
void TopCut(const Netlist& nl, const PlacerParams& params, MetricList* mt) {
  namespace part = p3d::partition;
  Timer t;
  part::Hypergraph hg;
  std::vector<std::int32_t> local(static_cast<std::size_t>(nl.NumCells()), -1);
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (!nl.cell(c).fixed) {
      local[static_cast<std::size_t>(c)] = hg.AddVertex(nl.cell(c).Area());
    }
  }
  std::vector<std::int32_t> verts;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    verts.clear();
    for (const p3d::netlist::Pin& pin : nl.NetPins(n)) {
      const std::int32_t v = local[static_cast<std::size_t>(pin.cell)];
      if (v >= 0) verts.push_back(v);
    }
    if (verts.size() >= 2) hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  part::PartitionOptions popt;
  popt.num_starts = params.partition_starts;
  popt.fm_passes = params.partition_fm_passes;
  popt.seed = params.seed;
  popt.threads = params.threads;
  const part::PartitionResult pr = part::Bipartition(hg, popt);
  mt->Add("partition.top_cut_s", t.Seconds(), "s");
  mt->Add("partition.top_cut", pr.cut_cost, "count");
}

void AddServeLayerMetrics(MetricList* mt, double queue_wait_p50,
                          double busy_ratio, long long hits, long long misses) {
  mt->Add("serve.queue_wait_p50_s", queue_wait_p50, "s");
  mt->Add("serve.worker_busy_ratio", busy_ratio, "ratio");
  mt->Add("serve.fea_cache_hits", static_cast<double>(hits), "count");
  mt->Add("serve.fea_cache_misses", static_cast<double>(misses), "count");
}

/// Runs Placer3D::Run once and then the engine-by-engine replay of it;
/// checks the replay against Run and appends the per-layer metrics.
/// Returns Run's result (or nullopt when it failed; the ledger has it).
std::optional<PlacementResult> RunAndReplay(const Netlist& nl,
                                            const PlacerParams& params,
                                            const RunOptions& options,
                                            Ledger* ledger, MetricList* mt) {
  std::optional<PlacementResult> result;
  double run_s = 0.0;
  {
    p3d::util::StatusOr<p3d::place::Placer3D> placer =
        p3d::place::Placer3D::Create(nl, params);
    if (!placer.ok()) {
      ledger->Record("create", placer.status().ToString());
      return result;
    }
    Timer t;
    p3d::util::StatusOr<PlacementResult> r = placer->Run(options);
    run_s = t.Seconds();
    if (!r.ok()) {
      ledger->Record("run", r.status().ToString());
      return result;
    }
    ledger->Record("run", PlacementProblems(nl, placer->chip(), r->placement,
                                            FeaTally::Of(*r), options.with_fea));
    result = *std::move(r);
  }

  Replay replay = ReplayRun(nl, params, options);
  const bool same_bytes = SameBytes(replay.placement, result->placement);
  const bool same_fea = replay.fea.solves == result->fea_solves &&
                        replay.fea.cg_iters == result->fea_cg_iters;
  const bool identical = same_bytes && same_fea;
  if (!identical) {
    std::fprintf(stderr,
                 "STALE per-layer numbers: the replay does not reproduce Run "
                 "(bytes %s, FEA solves %lld vs %lld, CG iterations %lld vs "
                 "%lld)\n",
                 same_bytes ? "match" : "differ",
                 replay.fea.solves, result->fea_solves, replay.fea.cg_iters,
                 result->fea_cg_iters);
  }
  ledger->Check(replay.fea.nonconverged == 0,
                "replay: an FEA solve hit the iteration cap");
  for (const Metric& m : replay.metrics.items()) mt->Add(m.name, m.value, m.unit);
  mt->Add("trace.replay_identical", identical ? 1.0 : 0.0, "bool");
  mt->Add("trace.overhead_s", replay.wall_s - run_s, "s");
  mt->Add("trace.run_s", run_s, "s");
  TopCut(nl, params, mt);
  return result;
}

// ----- single-job workloads --------------------------------------------------

int RunSingle(const SingleJob& w, double seconds, bool trace) {
  Ledger ledger;
  MetricList mt;

  // Set-up: netlist generation + Placer3D::Create, repeated, median.
  std::vector<double> setup_s, generate_s;
  std::optional<Netlist> nl;
  for (int i = 0; i < kSetupRepeats; ++i) {
    nl.reset();
    Timer t;
    nl.emplace(p3d::io::Generate(w.spec));
    generate_s.push_back(t.Seconds());
    p3d::util::StatusOr<p3d::place::Placer3D> placer =
        p3d::place::Placer3D::Create(*nl, w.params);
    setup_s.push_back(t.Seconds());
    if (!placer.ok()) {
      ledger.Record("create", placer.status().ToString());
      PrintResult(false, ledger.attempted(), ledger.failed(), mt);
      return 1;
    }
  }

  if (trace) {
    mt.Add("io.generate_s", Median(generate_s), "s");
    RunAndReplay(*nl, w.params, w.options, &ledger, &mt);
    AddServeLayerMetrics(&mt, 0.0, 0.0, 0, 0);
    PrintResult(ledger.correct(), ledger.attempted(), ledger.failed(), mt);
    return ledger.correct() ? 0 : 1;
  }

  std::vector<double> op_s, op_rss_mb;
  std::optional<PlacementResult> first;
  Timer wall;
  while (op_s.empty() || (wall.Seconds() < seconds &&
                          static_cast<int>(op_s.size()) < kMaxOps)) {
    p3d::util::StatusOr<p3d::place::Placer3D> placer =
        p3d::place::Placer3D::Create(*nl, w.params);
    if (!placer.ok()) {
      ledger.Record("create", placer.status().ToString());
      break;
    }
    RssSampler rss;
    Timer t;
    p3d::util::StatusOr<PlacementResult> r = placer->Run(w.options);
    const double s = t.Seconds();
    op_rss_mb.push_back(rss.Stop());
    if (!r.ok()) {
      ledger.Record("run", r.status().ToString());
      break;
    }
    op_s.push_back(s);
    ledger.Record("run", PlacementProblems(*nl, placer->chip(), r->placement,
                                           FeaTally::Of(*r), w.options.with_fea));
    if (!first) {
      first = *std::move(r);
    } else {
      ledger.Check(SameBytes(first->placement, r->placement) &&
                       first->objective == r->objective &&
                       first->max_temp_c == r->max_temp_c,
                   "repeated Placer3D::Run gave a different placement");
    }
  }
  if (!first) {
    PrintResult(false, ledger.attempted(), ledger.failed(), mt);
    return 1;
  }
  const double place_s = Median(op_s);
  std::fprintf(stderr, "%lld FEA CG iterations per placement; placement times",
               first->fea_cg_iters);
  for (const double s : op_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");
  mt.Add("place_s", place_s, "s");
  mt.Add("objective", first->objective, "m");
  mt.Add("max_temp_c", first->max_temp_c, "degC");
  mt.Add("jobs_per_s", 1.0 / place_s, "1/s");
  mt.Add("job_p50_s", place_s, "s");
  mt.Add("setup_s", Median(setup_s), "s");
  mt.Add("peak_rss_mb", Median(op_rss_mb), "MB");
  PrintResult(ledger.correct(), ledger.attempted(), ledger.failed(), mt);
  return ledger.correct() ? 0 : 1;
}

// ----- serve_sweep -----------------------------------------------------------

/// One finished sweep job, copied out of the engine that ran it.
struct JobOutcome {
  std::string name;
  int layers = 0;
  double alpha_ilv = 0.0;
  double alpha_temp = 0.0;
  bool ok = false;
  PlacementResult result;
  double wall_s = 0.0;        // JobResult::wall_s
  double queue_wait_s = 0.0;  // batch start to job start
};

struct Batch {
  double makespan_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<JobOutcome> jobs;  // grid order
  p3d::serve::JobEngine::Stats stats;
};

/// Runs one sweep batch on a fresh engine and checks every job.
std::optional<Batch> RunBatch(const p3d::serve::JobEngineOptions& eopt,
                              const Netlist& nl, const SweepWorkload& w,
                              Ledger* ledger) {
  std::mutex mu;
  std::map<std::uint64_t, double> done_at;  // job id -> completion time
  Timer clock;
  p3d::serve::JobEngine engine(eopt);
  engine.SetCompletionCallback(
      [&](p3d::serve::JobHandle h, const std::string&,
          const p3d::serve::JobResult&) {
        const double now = clock.Seconds();
        std::lock_guard<std::mutex> lock(mu);
        done_at[h.id] = now;
      });

  p3d::serve::SweepSpec sweep;
  sweep.netlist = &nl;
  sweep.circuit = w.spec.name;
  sweep.base = w.base;
  sweep.options = w.options;
  sweep.layers = w.layers;
  sweep.alpha_ilv = w.alpha_ilv;
  sweep.alpha_temp = w.alpha_temp;
  RssSampler rss;
  clock.Reset();
  p3d::util::StatusOr<std::vector<p3d::serve::SweepPoint>> points =
      p3d::serve::RunSweep(engine, sweep);
  Batch b;
  b.makespan_s = clock.Seconds();
  b.peak_rss_mb = rss.Stop();
  if (!points.ok()) {
    ledger->Record("sweep", points.status().ToString());
    return std::nullopt;
  }
  b.stats = engine.GetStats();
  std::lock_guard<std::mutex> lock(mu);
  for (const p3d::serve::SweepPoint& pt : *points) {
    JobOutcome job;
    job.name = pt.name;
    job.layers = pt.layers;
    job.alpha_ilv = pt.alpha_ilv;
    job.alpha_temp = pt.alpha_temp;
    if (pt.result == nullptr || !pt.result->status.ok()) {
      ledger->Record(pt.name, pt.result == nullptr
                                  ? std::string("no result")
                                  : pt.result->status.ToString());
      b.jobs.push_back(std::move(job));
      continue;
    }
    job.ok = true;
    job.result = pt.result->placement;
    job.wall_s = pt.result->wall_s;
    const auto it = done_at.find(pt.handle.id);
    const double done = it == done_at.end() ? b.makespan_s : it->second;
    job.queue_wait_s = std::max(0.0, done - job.wall_s);

    p3d::util::StatusOr<p3d::place::Chip> chip = p3d::place::Chip::Build(
        nl, pt.layers, w.base.whitespace, w.base.inter_row_space);
    if (!chip.ok()) {
      ledger->Record(pt.name, chip.status().ToString());
    } else {
      ledger->Record(pt.name, PlacementProblems(nl, *chip, job.result.placement,
                                                FeaTally::Of(job.result),
                                                w.options.with_fea));
    }
    b.jobs.push_back(std::move(job));
  }
  return b;
}

/// The sweep point replayed and compared against a standalone run.
PlacerParams ProbeParams(const SweepWorkload& w, int layers) {
  PlacerParams p = w.base;
  p.num_layers = layers;
  p.alpha_ilv = w.probe_alpha_ilv;
  p.alpha_temp = w.probe_alpha_temp;
  return p;
}

const JobOutcome* FindJob(const Batch& b, const PlacerParams& p) {
  for (const JobOutcome& job : b.jobs) {
    if (job.ok && job.layers == p.num_layers && job.alpha_ilv == p.alpha_ilv &&
        job.alpha_temp == p.alpha_temp) {
      return &job;
    }
  }
  return nullptr;
}

int RunServe(const SweepWorkload& w, double seconds, bool trace) {
  Ledger ledger;
  MetricList mt;
  p3d::serve::JobEngineOptions eopt;
  eopt.num_workers = w.workers;
  eopt.thread_budget = 1;

  // Set-up: netlist generation + JobEngine construction, repeated, median.
  std::vector<double> setup_s, generate_s;
  std::optional<Netlist> nl;
  for (int i = 0; i < kSetupRepeats; ++i) {
    nl.reset();
    Timer t;
    nl.emplace(p3d::io::Generate(w.spec));
    generate_s.push_back(t.Seconds());
    p3d::serve::JobEngine engine(eopt);
    setup_s.push_back(t.Seconds());
  }

  std::vector<Batch> batches;
  Timer wall;
  while (batches.empty() ||
         (!trace && wall.Seconds() < seconds &&
          static_cast<int>(batches.size()) < kMaxOps)) {
    std::optional<Batch> b = RunBatch(eopt, *nl, w, &ledger);
    if (!b) break;
    if (!batches.empty()) {
      const std::vector<JobOutcome>& ref = batches.front().jobs;
      bool same = b->jobs.size() == ref.size();
      for (std::size_t i = 0; same && i < ref.size(); ++i) {
        same = SameBytes(b->jobs[i].result.placement, ref[i].result.placement);
      }
      ledger.Check(same, "repeated sweep batch gave different placements");
    }
    batches.push_back(*std::move(b));
  }
  if (batches.empty()) {
    PrintResult(false, ledger.attempted(), ledger.failed(), mt);
    return 1;
  }
  const Batch& first = batches.front();

  // One job per layer count must match a standalone Placer3D::Run byte for
  // byte; on the traced run the last one is also replayed.
  for (const int layers : w.layers) {
    const PlacerParams p = ProbeParams(w, layers);
    const JobOutcome* job = FindJob(first, p);
    if (job == nullptr) {
      ledger.Check(false, "probe job missing from the sweep");
      continue;
    }
    std::optional<PlacementResult> solo;
    if (trace && layers == w.layers.back()) {
      solo = RunAndReplay(*nl, p, w.options, &ledger, &mt);
    } else {
      p3d::util::StatusOr<p3d::place::Placer3D> placer =
          p3d::place::Placer3D::Create(*nl, p);
      if (placer.ok()) {
        p3d::util::StatusOr<PlacementResult> r = placer->Run(w.options);
        if (r.ok()) solo = *std::move(r);
      }
    }
    ledger.Check(solo.has_value() &&
                     SameBytes(solo->placement, job->result.placement),
                 "serve job " + job->name +
                     " differs from a standalone Placer3D::Run");
  }

  std::vector<double> makespans, rates, job_s;
  for (const Batch& b : batches) {
    makespans.push_back(b.makespan_s);
    rates.push_back(static_cast<double>(b.jobs.size()) / b.makespan_s);
    for (const JobOutcome& job : b.jobs) job_s.push_back(job.wall_s);
  }
  std::fprintf(stderr, "batch makespans");
  for (const double s : makespans) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");

  if (trace) {
    double busy = 0.0;
    std::vector<double> waits;
    for (const JobOutcome& job : first.jobs) {
      busy += job.wall_s;
      waits.push_back(job.queue_wait_s);
    }
    mt.Add("io.generate_s", Median(generate_s), "s");
    AddServeLayerMetrics(&mt, Median(waits),
                         busy / (w.workers * first.makespan_s),
                         first.stats.fea_cache.hits, first.stats.fea_cache.misses);
    PrintResult(ledger.correct(), ledger.attempted(), ledger.failed(), mt);
    return ledger.correct() ? 0 : 1;
  }

  double objective_sum = 0.0, max_temp = 0.0;
  for (const JobOutcome& job : first.jobs) {
    objective_sum += job.result.objective;
    max_temp = std::max(max_temp, job.result.max_temp_c);
  }
  mt.Add("place_s", Median(makespans), "s");
  mt.Add("objective", objective_sum / static_cast<double>(first.jobs.size()),
         "m");
  mt.Add("max_temp_c", max_temp, "degC");
  mt.Add("jobs_per_s", Median(rates), "1/s");
  mt.Add("job_p50_s", Median(job_s), "s");
  mt.Add("setup_s", Median(setup_s), "s");
  mt.Add("peak_rss_mb", first.peak_rss_mb, "MB");
  PrintResult(ledger.correct(), ledger.attempted(), ledger.failed(), mt);
  return ledger.correct() ? 0 : 1;
}

// ----- self-test of the failure accounting ------------------------------------

/// An illegal placement and a capped, non-converged FEA solve must each be
/// counted as a failed operation; a clean placement must not be.
int SelfTest() {
  namespace th = p3d::thermal;
  const Netlist nl = p3d::io::Generate(p3d::io::Table1Spec("ibm01", 0.05));
  PlacerParams params;
  p3d::util::StatusOr<p3d::place::Placer3D> placer =
      p3d::place::Placer3D::Create(nl, params);
  if (!placer.ok()) return 1;
  p3d::util::StatusOr<PlacementResult> r = placer->Run({.with_fea = true});
  if (!r.ok()) return 1;
  const p3d::place::Chip& chip = placer->chip();
  int errors = 0;
  const auto expect = [&](const char* what, const Ledger& l, long long failed) {
    const bool ok = l.attempted() == 1 && l.failed() == failed &&
                    l.correct() == (failed == 0);
    std::fprintf(stderr, "%s %s: attempted %lld failed %lld\n",
                 ok ? "ok  " : "FAIL", what, l.attempted(), l.failed());
    if (!ok) ++errors;
  };

  Ledger clean;
  clean.Record("clean", PlacementProblems(nl, chip, r->placement,
                                          FeaTally::Of(*r), true));
  expect("legal placement, converged FEA", clean, 0);

  // Stack the second movable cell onto the first: an overlap the placer's
  // own report never saw.
  Placement illegal = r->placement;
  std::int32_t a = -1, b = -1;
  for (std::int32_t c = 0; c < nl.NumCells() && b < 0; ++c) {
    if (nl.cell(c).fixed) continue;
    (a < 0 ? a : b) = c;
  }
  illegal.x[static_cast<std::size_t>(b)] = illegal.x[static_cast<std::size_t>(a)];
  illegal.y[static_cast<std::size_t>(b)] = illegal.y[static_cast<std::size_t>(a)];
  illegal.layer[static_cast<std::size_t>(b)] =
      illegal.layer[static_cast<std::size_t>(a)];
  Ledger overlap;
  overlap.Record("illegal", PlacementProblems(nl, chip, illegal,
                                              FeaTally::Of(*r), true));
  expect("overlapping placement", overlap, 1);

  // A real FEA solve capped at two CG iterations cannot converge.
  th::FeaContextOptions copt;
  copt.fea.cg.max_iters = 2;
  th::FeaContext ctx(placer->evaluator().params().stack,
                     th::ChipExtent{chip.width(), chip.height()}, copt);
  const Placement& p = r->placement;
  const th::PowerReport pw = th::ComputePower(
      nl, th::ComputeNetMetrics(nl, p.x, p.y, p.layer), params.electrical);
  FeaTally capped;
  capped.Add(ctx.Solve(p.x, p.y, p.layer, pw.cell_power));
  if (capped.nonconverged != 1) {
    std::fprintf(stderr, "FAIL capped FEA solve unexpectedly converged\n");
    ++errors;
  }
  Ledger fea;
  fea.Record("capped-fea", PlacementProblems(nl, chip, p, capped, true));
  expect("capped, non-converged FEA solve", fea, 1);

  std::printf("selftest %s\n", errors == 0 ? "passed" : "FAILED");
  return errors == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: placer_bench --workload <lite20k|thermal64|serve_sweep> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       placer_bench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  p3d::util::SetLogLevel(p3d::util::LogLevel::kError);
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (workload == "lite20k") return RunSingle(Lite20k(seed), seconds, trace);
  if (workload == "thermal64") return RunSingle(Thermal64(seed), seconds, trace);
  if (workload == "serve_sweep") return RunServe(ServeSweep(seed), seconds, trace);
  return Usage();
}
