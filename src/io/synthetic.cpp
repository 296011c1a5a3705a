#include "io/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/log.h"
#include "util/rng.h"

namespace p3d::io {
namespace {

struct Table1Row {
  const char* name;
  std::int32_t cells;
  double area_mm2;
};

// 100x the largest circuit is ~21M cells, far below the int32 cell-count
// limit.
constexpr double kMaxTable1Scale = 100.0;

// Verbatim from the paper's Table 1 (Benchmark Circuits).
constexpr Table1Row kTable1[] = {
    {"ibm01", 12282, 0.060}, {"ibm02", 19321, 0.086}, {"ibm03", 22207, 0.090},
    {"ibm04", 26633, 0.122}, {"ibm05", 29347, 0.150}, {"ibm06", 32185, 0.117},
    {"ibm07", 45135, 0.197}, {"ibm08", 50977, 0.214}, {"ibm09", 51746, 0.221},
    {"ibm10", 67692, 0.377}, {"ibm11", 68525, 0.287}, {"ibm12", 69663, 0.415},
    {"ibm13", 81508, 0.326}, {"ibm14", 146009, 0.680}, {"ibm15", 158244, 0.634},
    {"ibm16", 182137, 0.892}, {"ibm17", 183102, 1.040}, {"ibm18", 210323, 0.988},
};

SyntheticSpec SpecFromRow(const Table1Row& row, double scale,
                          std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = row.name;
  spec.num_cells =
      std::max<std::int32_t>(16, static_cast<std::int32_t>(
                                     std::lround(row.cells * scale)));
  spec.total_area_m2 = row.area_mm2 * 1e-6 * scale;  // mm^2 -> m^2, scaled
  spec.seed = seed;
  return spec;
}

/// Net degree sampler approximating the IBM-PLACE profile: mass concentrated
/// on 2-4 pins with a geometric tail capped at 40.
std::int32_t SampleNetDegree(util::Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.55) return 2;
  if (u < 0.75) return 3;
  if (u < 0.86) return 4;
  // Geometric tail: degree 5.. with ratio ~0.7.
  std::int32_t d = 5;
  while (d < 40 && rng.NextDouble() < 0.7) ++d;
  return d;
}

/// Window half-size around a net's seed cell: Rent-like, mostly small, with
/// occasional global nets spanning the whole index range.
std::int32_t SampleWindow(util::Rng& rng, std::int32_t num_cells,
                          double locality) {
  std::int32_t w = 8;
  while (w < num_cells && rng.NextDouble() > locality) w *= 4;
  return std::min(w, num_cells);
}

/// Throws std::invalid_argument unless `scale` is a usable Table 1 scale:
/// finite, positive, and small enough that every cell count fits an int32.
void CheckTable1Scale(double scale) {
  if (!(scale > 0.0 && scale <= kMaxTable1Scale)) {
    std::ostringstream msg;
    msg << "Table 1 scale must be in (0, " << kMaxTable1Scale << "], got "
        << scale;
    throw std::invalid_argument(msg.str());
  }
}

}  // namespace

std::vector<SyntheticSpec> Table1Specs(double scale) {
  CheckTable1Scale(scale);
  std::vector<SyntheticSpec> specs;
  specs.reserve(std::size(kTable1));
  std::uint64_t seed = 1;
  for (const Table1Row& row : kTable1) {
    specs.push_back(SpecFromRow(row, scale, seed++));
  }
  return specs;
}

SyntheticSpec Table1Spec(const std::string& name, double scale) {
  CheckTable1Scale(scale);
  std::uint64_t seed = 1;
  for (const Table1Row& row : kTable1) {
    if (name == row.name) return SpecFromRow(row, scale, seed);
    ++seed;
  }
  throw std::invalid_argument("unknown Table 1 circuit: " + name);
}

std::vector<SyntheticSpec> ScaleTierSpecs() {
  // All tiers share ibm18's area-per-cell so row geometry (and therefore the
  // legalization workload per cell) is comparable across the tier.
  constexpr double kIbm18AreaPerCellM2 = 0.988e-6 / 210323.0;
  struct Tier {
    const char* name;
    std::int32_t cells;
    std::uint64_t seed;
  };
  constexpr Tier kTiers[] = {
      {"lite", 100000, 181},
      {"scale1", 210323, 18},
      {"mega", 1000000, 1801},
  };
  std::vector<SyntheticSpec> specs;
  specs.reserve(std::size(kTiers));
  for (const Tier& t : kTiers) {
    SyntheticSpec spec;
    spec.name = t.name;
    spec.num_cells = t.cells;
    spec.total_area_m2 = kIbm18AreaPerCellM2 * t.cells;
    spec.seed = t.seed;
    specs.push_back(std::move(spec));
  }
  return specs;
}

SyntheticSpec ScaleTierSpec(const std::string& name) {
  for (SyntheticSpec& spec : ScaleTierSpecs()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown scale tier: " + name);
}

netlist::Netlist Generate(const SyntheticSpec& spec) {
  assert(spec.num_cells > 1);
  util::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  netlist::Netlist nl;

  // --- cells -------------------------------------------------------------
  // One standard-cell row height for all cells; widths are site-quantized
  // multiples with a decaying distribution, then rescaled so the total area
  // matches the spec exactly.
  const double avg_area = spec.total_area_m2 / spec.num_cells;
  // Aspect: average cell is ~3 sites wide at width ~= 3 * height.
  const double row_height = std::sqrt(avg_area / 3.0);
  std::vector<int> sites(static_cast<std::size_t>(spec.num_cells));
  double site_sum = 0.0;
  for (auto& s : sites) {
    // 1..12 sites, geometric-ish decay, mean ~3.
    int n = 1 + static_cast<int>(rng.NextBounded(3));
    while (n < 12 && rng.NextDouble() < 0.25) n += 1 + static_cast<int>(rng.NextBounded(3));
    s = std::min(n, 12);
    site_sum += s;
  }
  const double site_width =
      spec.total_area_m2 / (row_height * site_sum);  // exact-area site pitch
  for (std::int32_t c = 0; c < spec.num_cells; ++c) {
    nl.AddCell(spec.name + "_c" + std::to_string(c),
               sites[static_cast<std::size_t>(c)] * site_width, row_height,
               /*fixed=*/false);
  }

  // --- nets ----------------------------------------------------------------
  const auto num_nets = static_cast<std::int32_t>(
      std::lround(spec.nets_per_cell * spec.num_cells));
  std::vector<std::int32_t> members;
  std::vector<bool> used(static_cast<std::size_t>(spec.num_cells), false);
  for (std::int32_t n = 0; n < num_nets; ++n) {
    const std::int32_t degree =
        std::min<std::int32_t>(SampleNetDegree(rng), spec.num_cells);
    const auto seed_cell =
        static_cast<std::int32_t>(rng.NextBounded(
            static_cast<std::uint64_t>(spec.num_cells)));
    // Cap the window at the circuit size: on tiny circuits an uncapped
    // window made num_cells - window negative, and the clamp below then
    // produced negative candidate cell ids (caught by Netlist::Finalize).
    const std::int32_t window = std::min<std::int32_t>(
        spec.num_cells,
        std::max<std::int32_t>(
            degree * 2, SampleWindow(rng, spec.num_cells, spec.rent_locality)));
    const std::int32_t lo =
        std::clamp(seed_cell - window / 2, 0, spec.num_cells - window);
    members.clear();
    members.push_back(seed_cell);
    used[static_cast<std::size_t>(seed_cell)] = true;
    int attempts = 0;
    while (static_cast<std::int32_t>(members.size()) < degree &&
           attempts < 16 * degree) {
      const auto cand = static_cast<std::int32_t>(
          lo + static_cast<std::int32_t>(
                   rng.NextBounded(static_cast<std::uint64_t>(window))));
      ++attempts;
      if (used[static_cast<std::size_t>(cand)]) continue;
      used[static_cast<std::size_t>(cand)] = true;
      members.push_back(cand);
    }
    for (const std::int32_t m : members) used[static_cast<std::size_t>(m)] = false;
    if (members.size() < 2) {
      // Degenerate draw (tiny circuit); skip rather than emit a 1-pin net.
      continue;
    }
    // Heavy-tailed switching activities (most nets nearly quiet, a few hot),
    // matching real switching profiles; selective thermal optimization has
    // no leverage under a narrow uniform distribution.
    const double u = rng.NextDouble();
    nl.AddNet(spec.name + "_n" + std::to_string(n),
              /*activity=*/0.01 + 0.49 * u * u * u * u);
    // First member drives the net, the rest are loads (one driver per net).
    nl.AddPin(members[0], netlist::PinDir::kOutput);
    for (std::size_t i = 1; i < members.size(); ++i) {
      nl.AddPin(members[i], netlist::PinDir::kInput);
    }
  }

  // --- fixed IO pads --------------------------------------------------------
  // Appended after the core so a num_pads = 0 spec generates the exact same
  // netlist (and RNG stream) as before the pads existed.
  for (std::int32_t p = 0; p < spec.num_pads; ++p) {
    const std::int32_t pad =
        nl.AddCell(spec.name + "_pad" + std::to_string(p), 1e-6, 1e-6,
                   /*fixed=*/true);
    nl.AddNet(spec.name + "_padnet" + std::to_string(p), /*activity=*/0.15);
    nl.AddPin(pad, netlist::PinDir::kOutput);
    const int loads = 1 + static_cast<int>(rng.NextBounded(2));
    for (int l = 0; l < loads; ++l) {
      nl.AddPin(static_cast<std::int32_t>(rng.NextBounded(
                    static_cast<std::uint64_t>(spec.num_cells))),
                netlist::PinDir::kInput);
    }
  }

  const bool ok = nl.Finalize();
  assert(ok);
  (void)ok;
  util::LogDebug("synthetic %s: %d cells, %d nets, %d pins, area %.4g mm^2",
                 spec.name.c_str(), nl.NumCells(), nl.NumNets(), nl.NumPins(),
                 nl.MovableArea() * 1e6);
  return nl;
}

void PlacePadRing(const netlist::Netlist& nl, double die_width,
                  double die_height, place::Placement* placement) {
  std::vector<std::int32_t> pads;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.cell(c).fixed) pads.push_back(c);
  }
  const double margin = 2e-6;  // just outside the outline
  const std::size_t n = pads.size();
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = static_cast<std::size_t>(pads[p]);
    const double t = static_cast<double>(p) / static_cast<double>(n);
    if (t < 0.25) {
      placement->x[i] = 4 * t * die_width;
      placement->y[i] = -margin;
    } else if (t < 0.5) {
      placement->x[i] = die_width + margin;
      placement->y[i] = 4 * (t - 0.25) * die_height;
    } else if (t < 0.75) {
      placement->x[i] = (1 - 4 * (t - 0.5)) * die_width;
      placement->y[i] = die_height + margin;
    } else {
      placement->x[i] = -margin;
      placement->y[i] = 4 * (t - 0.75) * die_height;
    }
    placement->layer[i] = 0;
  }
}

}  // namespace p3d::io
