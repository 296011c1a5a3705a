// Synthetic benchmark generator standing in for the IBM-PLACE suite.
//
// The paper evaluates on ibm01..ibm18 (its Table 1). Those files are not
// redistributable, so this generator produces circuits whose *published*
// statistics match Table 1 — cell count and total cell area — together with
// realistic structure:
//   * standard-cell geometry: one common row height, quantized widths with a
//     decaying width distribution;
//   * ~1 net per cell with a power-law degree distribution (most nets are
//     2-4 pins, heavy tail up to ~40 pins), matching the IBM .nets profile;
//   * *index locality*: net members are drawn from a window around a seed
//     cell whose size follows a Rent-like geometric distribution, so good
//     placements exist and optimization is meaningful;
//   * one driver (output pin) per net; switching activities drawn uniformly
//     from [0.05, 0.25].
//
// A `scale` parameter shrinks circuits proportionally (cells and area) so the
// full paper sweep fits in CI time; scale = 1 reproduces Table 1 sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "place/chip.h"

namespace p3d::io {

struct SyntheticSpec {
  std::string name;
  std::int32_t num_cells = 0;
  double total_area_m2 = 0.0;     // movable-cell area
  double nets_per_cell = 1.05;    // IBM-PLACE averages slightly above 1
  double rent_locality = 0.75;    // P(window stays small); higher = more local
  // Fixed IO pads appended after the core cells (the Bookshelf/IBM-PLACE
  // situation): each pad drives one pad net into 1-2 random core cells.
  // Positions are not part of the netlist; see PlacePadRing.
  std::int32_t num_pads = 0;
  std::uint64_t seed = 1;
};

/// Table 1 of the paper: name, cell count, and cell area (mm^2) of
/// ibm01..ibm18. `scale` multiplies both cell count and area; it must be
/// finite and in (0, 100], else std::invalid_argument.
std::vector<SyntheticSpec> Table1Specs(double scale = 1.0);

/// Returns the spec of a single Table 1 circuit ("ibm01".."ibm18"). Throws
/// std::invalid_argument on an unknown name or a scale Table1Specs rejects.
SyntheticSpec Table1Spec(const std::string& name, double scale = 1.0);

/// The scale tier: fixed-size presets for full-flow scaling work, sized
/// relative to ibm18 (the largest Table 1 circuit, 210k cells):
///   * "lite"   — 100k cells, CI-sized determinism/audit coverage;
///   * "scale1" — 210k cells / 0.988 mm^2, the ibm18 operating point;
///   * "mega"   — 1M cells at the ibm18 area density, the stress preset.
/// All presets keep num_pads = 0 so the generator RNG stream is a pure
/// function of (num_cells, seed) and results stay reproducible.
std::vector<SyntheticSpec> ScaleTierSpecs();

/// Returns a single scale-tier preset ("lite", "scale1", "mega").
SyntheticSpec ScaleTierSpec(const std::string& name);

/// Generates the netlist for a spec. The returned netlist is finalized.
netlist::Netlist Generate(const SyntheticSpec& spec);

/// Positions the netlist's fixed cells evenly along a ring just outside the
/// die outline (layer 0), the usual IO-pad arrangement; movable entries of
/// `placement` are untouched. `placement` must already be sized to
/// nl.NumCells(). Feed the result to Placer3D::Run(initial, ...).
void PlacePadRing(const netlist::Netlist& nl, double die_width,
                  double die_height, place::Placement* placement);

}  // namespace p3d::io
