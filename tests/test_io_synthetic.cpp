#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/synthetic.h"

namespace p3d::io {
namespace {

TEST(Table1, HasAll18Circuits) {
  const auto specs = Table1Specs(1.0);
  ASSERT_EQ(specs.size(), 18u);
  EXPECT_EQ(specs.front().name, "ibm01");
  EXPECT_EQ(specs.front().num_cells, 12282);
  EXPECT_NEAR(specs.front().total_area_m2, 0.060e-6, 1e-12);
  EXPECT_EQ(specs.back().name, "ibm18");
  EXPECT_EQ(specs.back().num_cells, 210323);
  EXPECT_NEAR(specs.back().total_area_m2, 0.988e-6, 1e-12);
}

TEST(Table1, ScaleShrinksProportionally) {
  const auto specs = Table1Specs(0.1);
  EXPECT_EQ(specs[0].num_cells, 1228);
  EXPECT_NEAR(specs[0].total_area_m2, 0.060e-7, 1e-13);
}

TEST(Table1, ScaleHasFloor) {
  const auto specs = Table1Specs(1e-9);
  for (const auto& s : specs) EXPECT_GE(s.num_cells, 16);
}

TEST(Table1, LookupByName) {
  const SyntheticSpec s = Table1Spec("ibm07", 1.0);
  EXPECT_EQ(s.num_cells, 45135);
  EXPECT_THROW(Table1Spec("ibm99", 1.0), std::invalid_argument);
}

TEST(Table1, RejectsNonPositiveNonFiniteOrHugeScale) {
  for (const double scale : {0.0, -1.0, std::nan(""), HUGE_VAL, 1e12}) {
    EXPECT_THROW(Table1Spec("ibm01", scale), std::invalid_argument) << scale;
    EXPECT_THROW(Table1Specs(scale), std::invalid_argument) << scale;
  }
}

TEST(Table1, DistinctSeedsPerCircuit) {
  const auto specs = Table1Specs(1.0);
  EXPECT_NE(specs[0].seed, specs[1].seed);
}

TEST(Generate, Deterministic) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 5e-12;
  spec.seed = 77;
  const netlist::Netlist a = Generate(spec);
  const netlist::Netlist b = Generate(spec);
  ASSERT_EQ(a.NumNets(), b.NumNets());
  ASSERT_EQ(a.NumPins(), b.NumPins());
  for (std::int32_t n = 0; n < a.NumNets(); ++n) {
    EXPECT_DOUBLE_EQ(a.net(n).activity, b.net(n).activity);
  }
  for (std::int32_t c = 0; c < a.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(a.cell(c).width, b.cell(c).width);
  }
}

TEST(Generate, DifferentSeedsDiffer) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 5e-12;
  spec.seed = 1;
  const netlist::Netlist a = Generate(spec);
  spec.seed = 2;
  const netlist::Netlist b = Generate(spec);
  bool any_diff = a.NumPins() != b.NumPins();
  for (std::int32_t c = 0; !any_diff && c < a.NumCells(); ++c) {
    any_diff = a.cell(c).width != b.cell(c).width;
  }
  EXPECT_TRUE(any_diff);
}

class GenerateStats : public ::testing::TestWithParam<int> {};

TEST_P(GenerateStats, MatchesSpec) {
  const int n = GetParam();
  SyntheticSpec spec;
  spec.name = "p";
  spec.num_cells = n;
  spec.total_area_m2 = n * 4.9e-12;
  spec.seed = static_cast<std::uint64_t>(n);
  const netlist::Netlist nl = Generate(spec);

  // Cell count and area match the spec (area to float rounding).
  EXPECT_EQ(nl.NumCells(), n);
  EXPECT_NEAR(nl.MovableArea(), spec.total_area_m2,
              spec.total_area_m2 * 1e-9);

  // Roughly one net per cell.
  EXPECT_GT(nl.NumNets(), n * 0.9);
  EXPECT_LT(nl.NumNets(), n * 1.2);

  // Net degree profile: all within [2, 40], mostly small.
  int small = 0;
  for (std::int32_t i = 0; i < nl.NumNets(); ++i) {
    const int deg = nl.net(i).num_pins;
    ASSERT_GE(deg, 2);
    ASSERT_LE(deg, 40);
    if (deg <= 4) ++small;
  }
  EXPECT_GT(small, nl.NumNets() * 0.7);

  // Exactly one driver per net; activities in the documented range.
  for (std::int32_t i = 0; i < nl.NumNets(); ++i) {
    EXPECT_EQ(nl.NumOutputPins(i), 1);
    EXPECT_GE(nl.net(i).activity, 0.01);
    EXPECT_LE(nl.net(i).activity, 0.5);
  }

  // Uniform row height; widths positive and quantized to a common pitch.
  const double h = nl.cell(0).height;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(nl.cell(c).height, h);
    EXPECT_GT(nl.cell(c).width, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GenerateStats,
                         ::testing::Values(64, 300, 1000, 5000));

TEST(Generate, ActivityDistributionHeavyTailed) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_cells = 2000;
  spec.total_area_m2 = 2000 * 4.9e-12;
  spec.seed = 5;
  const netlist::Netlist nl = Generate(spec);
  int cool = 0, hot = 0;
  for (std::int32_t i = 0; i < nl.NumNets(); ++i) {
    if (nl.net(i).activity < 0.1) ++cool;
    if (nl.net(i).activity > 0.3) ++hot;
  }
  // Most nets are cool, but a real hot tail exists.
  EXPECT_GT(cool, nl.NumNets() / 2);
  EXPECT_GT(hot, 0);
  EXPECT_LT(hot, nl.NumNets() / 4);
}

}  // namespace
}  // namespace p3d::io
