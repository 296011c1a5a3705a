// The parallel runtime's hard contract: same seed + same inputs produce
// bit-identical results for ANY thread count. These tests pin that contract
// at every wired-in layer — CG/SpMV, multi-start partitioning, and the full
// placement flow (the ISSUE/acceptance ctest: threads=1 vs threads=4).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/audit.h"
#include "io/synthetic.h"
#include "linalg/cg.h"
#include "linalg/csr.h"
#include "partition/partitioner.h"
#include "place/placer.h"
#include "runtime/thread_pool.h"
#include "util/log.h"
#include "util/rng.h"

namespace p3d {
namespace {

TEST(Determinism, CsrMultiplyBitIdenticalAcrossThreadCounts) {
  // 2D 5-point Laplacian, 120x120 grid.
  const std::int32_t g = 120;
  const std::int32_t n = g * g;
  linalg::CooBuilder coo(n);
  for (std::int32_t y = 0; y < g; ++y) {
    for (std::int32_t x = 0; x < g; ++x) {
      const std::int32_t i = y * g + x;
      coo.Add(i, i, 4.0);
      if (x > 0) coo.Add(i, i - 1, -1.0);
      if (x < g - 1) coo.Add(i, i + 1, -1.0);
      if (y > 0) coo.Add(i, i - g, -1.0);
      if (y < g - 1) coo.Add(i, i + g, -1.0);
    }
  }
  const linalg::CsrMatrix a = linalg::CsrMatrix::FromCoo(coo);
  std::vector<double> x(static_cast<std::size_t>(n));
  util::Rng rng(21);
  for (double& v : x) v = rng.NextDouble(-1.0, 1.0);

  std::vector<double> y_serial;
  a.Multiply(x, &y_serial);
  for (const int threads : {2, 4, 8}) {
    runtime::ThreadPool pool(threads);
    std::vector<double> y;
    a.Multiply(x, &y, &pool);
    EXPECT_EQ(y_serial, y) << "threads=" << threads;  // element-wise bitwise
  }
}

TEST(Determinism, SolveCgBitIdenticalAcrossThreadCounts) {
  const std::int32_t g = 60;
  const std::int32_t n = g * g;
  linalg::CooBuilder coo(n);
  for (std::int32_t y = 0; y < g; ++y) {
    for (std::int32_t x = 0; x < g; ++x) {
      const std::int32_t i = y * g + x;
      coo.Add(i, i, 4.1);  // slightly diagonally dominant: well-conditioned
      if (x > 0) coo.Add(i, i - 1, -1.0);
      if (x < g - 1) coo.Add(i, i + 1, -1.0);
      if (y > 0) coo.Add(i, i - g, -1.0);
      if (y < g - 1) coo.Add(i, i + g, -1.0);
    }
  }
  const linalg::CsrMatrix a = linalg::CsrMatrix::FromCoo(coo);
  std::vector<double> b(static_cast<std::size_t>(n));
  util::Rng rng(31);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);

  linalg::CgOptions opt;
  opt.threads = 1;
  std::vector<double> x1;
  const linalg::CgResult r1 = linalg::SolveCg(a, b, &x1, opt);
  ASSERT_TRUE(r1.converged);
  for (const int threads : {2, 4, 8}) {
    opt.threads = threads;
    std::vector<double> xt;
    const linalg::CgResult rt = linalg::SolveCg(a, b, &xt, opt);
    EXPECT_EQ(r1.iters, rt.iters) << "threads=" << threads;
    EXPECT_EQ(x1, xt) << "threads=" << threads;  // bitwise-identical iterates
  }
}

partition::Hypergraph MakeHypergraph(const netlist::Netlist& nl) {
  partition::Hypergraph hg;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    hg.AddVertex(nl.cell(c).Area());
  }
  std::vector<std::int32_t> verts;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    verts.clear();
    for (const auto& pin : nl.NetPins(n)) verts.push_back(pin.cell);
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  return hg;
}

TEST(Determinism, MultiStartBipartitionIdenticalAcrossThreadCounts) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  io::SyntheticSpec spec;
  spec.name = "det";
  spec.num_cells = 600;
  spec.total_area_m2 = 600 * 4.9e-12;
  spec.seed = 5;
  const netlist::Netlist nl = io::Generate(spec);
  const partition::Hypergraph hg = MakeHypergraph(nl);

  partition::PartitionOptions opt;
  opt.num_starts = 8;
  opt.tolerance = 0.05;
  opt.seed = 77;
  opt.threads = 1;
  const partition::PartitionResult r1 = partition::Bipartition(hg, opt);
  for (const int threads : {2, 4, 8}) {
    opt.threads = threads;
    const partition::PartitionResult rt = partition::Bipartition(hg, opt);
    EXPECT_EQ(r1.side, rt.side) << "threads=" << threads;
    EXPECT_EQ(r1.cut_cost, rt.cut_cost) << "threads=" << threads;
    EXPECT_EQ(r1.feasible, rt.feasible) << "threads=" << threads;
  }
}

TEST(Determinism, PlacementByteIdenticalThreads1Vs4) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  io::SyntheticSpec spec;
  spec.name = "det";
  spec.num_cells = 400;
  spec.total_area_m2 = 400 * 4.9e-12;
  spec.seed = 9;
  const netlist::Netlist nl = io::Generate(spec);

  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;  // exercise the thermal path (TRR nets + CG)
  params.partition_starts = 4;
  params.seed = 12345;

  params.threads = 1;
  place::Placer3D p1(nl, params);
  const place::PlacementResult r1 = *p1.Run({.with_fea = true});

  params.threads = 4;
  place::Placer3D p4(nl, params);
  const place::PlacementResult r4 = *p4.Run({.with_fea = true});

  // Cell coordinates byte-identical (vector<double>/<int> operator== is
  // element-wise exact), and every reported metric identical.
  EXPECT_EQ(r1.placement.x, r4.placement.x);
  EXPECT_EQ(r1.placement.y, r4.placement.y);
  EXPECT_EQ(r1.placement.layer, r4.placement.layer);
  EXPECT_EQ(r1.hpwl_m, r4.hpwl_m);
  EXPECT_EQ(r1.ilv_count, r4.ilv_count);
  EXPECT_EQ(r1.total_power_w, r4.total_power_w);
  EXPECT_EQ(r1.objective, r4.objective);
  EXPECT_EQ(r1.avg_temp_c, r4.avg_temp_c);
  EXPECT_EQ(r1.max_temp_c, r4.max_temp_c);
  EXPECT_EQ(r1.legal, r4.legal);
}

TEST(Determinism, PlacementByteIdenticalThreads3AndUnderParanoidAudit) {
  // Two extensions of the 1-vs-4 contract: a non-power-of-two thread count
  // (odd work partitioning), and a paranoid audit riding along — the
  // auditor is a pure observer, so the placement must not shift by a byte.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  io::SyntheticSpec spec;
  spec.name = "det";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 4.9e-12;
  spec.seed = 11;
  const netlist::Netlist nl = io::Generate(spec);

  place::PlacerParams params;
  params.num_layers = 3;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;
  params.partition_starts = 4;
  params.seed = 4242;

  params.threads = 1;
  place::Placer3D p1(nl, params);
  const place::PlacementResult r1 = *p1.Run({.with_fea = false});

  params.threads = 3;
  place::Placer3D p3(nl, params);
  const place::PlacementResult r3 = *p3.Run({.with_fea = false});
  EXPECT_EQ(r1.placement.x, r3.placement.x);
  EXPECT_EQ(r1.placement.y, r3.placement.y);
  EXPECT_EQ(r1.placement.layer, r3.placement.layer);
  EXPECT_EQ(r1.objective, r3.objective);

  params.threads = 3;
  params.audit_level = place::AuditLevel::kParanoid;
  place::Placer3D pa(nl, params);
  check::PlacementAuditor auditor(nl, params.audit_level);
  auditor.Attach(&pa);
  const place::PlacementResult ra = *pa.Run({.with_fea = false});
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  EXPECT_GT(auditor.report().replayed_ops, 0u);
  EXPECT_EQ(r1.placement.x, ra.placement.x);
  EXPECT_EQ(r1.placement.y, ra.placement.y);
  EXPECT_EQ(r1.placement.layer, ra.placement.layer);
  EXPECT_EQ(r1.objective, ra.objective);
}

TEST(Determinism, LegalizeThreadsByteIdentical1Vs3Vs8) {
  // The windowed legalization schedules (DESIGN.md §5) run on `threads`
  // workers; vary it across 1 / 3 / 8 and require the full-flow placement
  // to the byte. The 8-worker run also carries a paranoid auditor, which
  // replays every committed move delta — a pure observer that must not
  // shift a byte.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  io::SyntheticSpec spec;
  spec.name = "det";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 4.9e-12;
  spec.seed = 13;
  const netlist::Netlist nl = io::Generate(spec);

  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.partition_starts = 2;
  params.seed = 777;

  params.threads = 1;
  place::Placer3D p1(nl, params);
  const place::PlacementResult r1 = *p1.Run({.with_fea = false});

  params.threads = 3;
  place::Placer3D p3(nl, params);
  const place::PlacementResult r3 = *p3.Run({.with_fea = false});
  EXPECT_EQ(r1.placement.x, r3.placement.x);
  EXPECT_EQ(r1.placement.y, r3.placement.y);
  EXPECT_EQ(r1.placement.layer, r3.placement.layer);
  EXPECT_EQ(r1.objective, r3.objective);

  params.threads = 8;
  params.audit_level = place::AuditLevel::kParanoid;
  place::Placer3D p8(nl, params);
  check::PlacementAuditor auditor(nl, params.audit_level);
  auditor.Attach(&p8);
  const place::PlacementResult r8 = *p8.Run({.with_fea = false});
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  EXPECT_GT(auditor.report().replayed_ops, 0u);
  EXPECT_EQ(r1.placement.x, r8.placement.x);
  EXPECT_EQ(r1.placement.y, r8.placement.y);
  EXPECT_EQ(r1.placement.layer, r8.placement.layer);
  EXPECT_EQ(r1.objective, r8.objective);
}

}  // namespace
}  // namespace p3d
