#include "io/bookshelf.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "util/log.h"
#include "util/parse.h"

namespace p3d::io {
namespace {

// Strips comments (# to end of line) and leading/trailing whitespace.
std::string CleanLine(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) tokens.push_back(tok);
  return tokens;
}

/// Walks the data lines of one Bookshelf file (skipping blanks, comments
/// and the UCLA header) and parses their numeric tokens strictly: a token
/// that is not wholly a finite number in range is a kParseError naming the
/// file and line, never a silent 0 or NaN.
class LineReader {
 public:
  LineReader(std::istream& in, const std::string& path)
      : in_(in), path_(path) {}

  /// Reads the next data line into line(); false at end of file.
  bool Next() {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_no_;
      line_ = CleanLine(raw);
      if (line_.empty()) continue;
      if (line_.rfind("UCLA", 0) == 0) continue;  // format header
      return true;
    }
    return false;
  }
  const std::string& line() const { return line_; }

  util::Status Error(const std::string& what) const {
    return util::ParseError("bookshelf: " + path_ + ":" +
                            std::to_string(line_no_) + ": " + what);
  }

  /// A finite number no smaller than `min` (exclusive when `strict`).
  util::Status Number(const std::string& token, const char* what, double* out,
                      double min = -std::numeric_limits<double>::infinity(),
                      bool strict = false) const {
    const auto v = util::ParseFiniteDouble(token);
    if (!v || *v < min || (strict && *v == min)) {
      return Error(std::string("bad ") + what + " '" + token + "'");
    }
    *out = *v;
    return util::Status::Ok();
  }

  /// An integer in [lo, hi].
  template <typename Int>
  util::Status Integer(const std::string& token, const char* what, Int* out,
                       long long lo = 0,
                       long long hi = std::numeric_limits<Int>::max()) const {
    const auto v = util::ParseInteger(token, lo, hi);
    if (!v) return Error(std::string("bad ") + what + " '" + token + "'");
    *out = static_cast<Int>(*v);
    return util::Status::Ok();
  }

 private:
  std::istream& in_;
  const std::string& path_;
  std::string line_;
  long long line_no_ = 0;
};

/// True when `tokens` is a "key : N" header line.
bool IsKeyLine(const std::vector<std::string>& tokens, const char* key) {
  return tokens.size() >= 3 && tokens[0] == key && tokens[1] == ":";
}

// Maps cell names to ids while parsing .nets / .pl.
std::unordered_map<std::string, std::int32_t> BuildNameIndex(
    const netlist::Netlist& nl) {
  std::unordered_map<std::string, std::int32_t> index;
  index.reserve(static_cast<std::size_t>(nl.NumCells()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    index.emplace(nl.cell(c).name, c);
  }
  return index;
}

std::string DirName(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

}  // namespace

util::Status ParseNodesFile(const std::string& path, double unit_m,
                            netlist::Netlist* nl) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open nodes file " + path);
  }
  LineReader reader(in, path);
  std::int64_t num_nodes = -1;
  while (reader.Next()) {
    const auto tokens = Tokenize(reader.line());
    if (IsKeyLine(tokens, "NumNodes")) {
      if (util::Status s = reader.Integer(tokens[2], "NumNodes", &num_nodes);
          !s.ok())
        return s;
      continue;
    }
    if (IsKeyLine(tokens, "NumTerminals")) {
      std::int64_t num_terminals = 0;
      if (util::Status s =
              reader.Integer(tokens[2], "NumTerminals", &num_terminals);
          !s.ok())
        return s;
      continue;
    }
    if (tokens.size() < 3) {
      return reader.Error("bad nodes line: " + reader.line());
    }
    // Movable cells need a positive footprint; terminals (pads) may be
    // zero-sized.
    const bool terminal = tokens.size() >= 4 && tokens[3] == "terminal";
    double width = 0.0, height = 0.0;
    if (util::Status s = reader.Number(tokens[1], "cell width", &width, 0.0,
                                       /*strict=*/!terminal);
        !s.ok())
      return s;
    if (util::Status s = reader.Number(tokens[2], "cell height", &height, 0.0,
                                       /*strict=*/!terminal);
        !s.ok())
      return s;
    nl->AddCell(tokens[0], width * unit_m, height * unit_m, terminal);
  }
  if (num_nodes >= 0 && nl->NumCells() != num_nodes) {
    util::LogWarn("bookshelf: NumNodes=%lld but parsed %d cells",
                  static_cast<long long>(num_nodes), nl->NumCells());
  }
  return util::Status::Ok();
}

util::Status ParseNetsFile(const std::string& path, double unit_m,
                           netlist::Netlist* nl) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open nets file " + path);
  }
  const auto name_index = BuildNameIndex(*nl);
  LineReader reader(in, path);
  std::int64_t expected_nets = -1, expected_pins = -1;
  std::int64_t pins_parsed = 0;
  std::int32_t pins_remaining = 0;
  while (reader.Next()) {
    const auto tokens = Tokenize(reader.line());
    if (IsKeyLine(tokens, "NumNets")) {
      if (util::Status s = reader.Integer(tokens[2], "NumNets", &expected_nets);
          !s.ok())
        return s;
      continue;
    }
    if (IsKeyLine(tokens, "NumPins")) {
      if (util::Status s = reader.Integer(tokens[2], "NumPins", &expected_pins);
          !s.ok())
        return s;
      continue;
    }
    if (tokens[0] == "NetDegree") {
      // "NetDegree : d [name]"
      if (tokens.size() < 3) {
        return reader.Error("bad NetDegree line: " + reader.line());
      }
      if (util::Status s =
              reader.Integer(tokens[2], "NetDegree", &pins_remaining);
          !s.ok())
        return s;
      const std::string net_name =
          tokens.size() >= 4 ? tokens[3]
                             : "net" + std::to_string(nl->NumNets());
      nl->AddNet(net_name);
      continue;
    }
    // Pin line: "cellname I|O|B [: xoff yoff]"
    if (pins_remaining <= 0) {
      return reader.Error("pin line outside a net: " + reader.line());
    }
    const auto it = name_index.find(tokens[0]);
    if (it == name_index.end()) {
      return reader.Error("pin references unknown cell " + tokens[0]);
    }
    netlist::PinDir dir = netlist::PinDir::kInput;
    std::size_t next = 1;
    if (tokens.size() > 1 && tokens[1].size() == 1 &&
        std::isalpha(static_cast<unsigned char>(tokens[1][0]))) {
      if (tokens[1] == "O") dir = netlist::PinDir::kOutput;
      next = 2;
    }
    double dx = 0.0, dy = 0.0;
    if (tokens.size() >= next + 3 && tokens[next] == ":") {
      if (util::Status s = reader.Number(tokens[next + 1], "pin x offset", &dx);
          !s.ok())
        return s;
      if (util::Status s = reader.Number(tokens[next + 2], "pin y offset", &dy);
          !s.ok())
        return s;
    }
    nl->AddPin(it->second, dir, dx * unit_m, dy * unit_m);
    --pins_remaining;
    ++pins_parsed;
  }
  if (expected_nets >= 0 && nl->NumNets() != expected_nets) {
    util::LogWarn("bookshelf: NumNets=%lld but parsed %d",
                  static_cast<long long>(expected_nets), nl->NumNets());
  }
  if (expected_pins >= 0 && pins_parsed != expected_pins) {
    util::LogWarn("bookshelf: NumPins=%lld but parsed %lld",
                  static_cast<long long>(expected_pins),
                  static_cast<long long>(pins_parsed));
  }
  return util::Status::Ok();
}

util::Status ParsePlFile(const std::string& path, double unit_m,
                         const netlist::Netlist& nl, std::vector<double>* x,
                         std::vector<double>* y, std::vector<int>* layer) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open pl file " + path);
  }
  const auto name_index = BuildNameIndex(nl);
  x->assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  y->assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  layer->assign(static_cast<std::size_t>(nl.NumCells()), 0);
  LineReader reader(in, path);
  while (reader.Next()) {
    const auto tokens = Tokenize(reader.line());
    if (tokens.size() < 3) continue;
    const auto it = name_index.find(tokens[0]);
    if (it == name_index.end()) {
      util::LogWarn("bookshelf: pl references unknown cell %s",
                    tokens[0].c_str());
      continue;
    }
    const std::size_t c = static_cast<std::size_t>(it->second);
    double px = 0.0, py = 0.0;
    if (util::Status s = reader.Number(tokens[1], "x coordinate", &px);
        !s.ok())
      return s;
    if (util::Status s = reader.Number(tokens[2], "y coordinate", &py);
        !s.ok())
      return s;
    (*x)[c] = px * unit_m;
    (*y)[c] = py * unit_m;
    // Optional ": orientation [layer]" suffix; a "/FIXED" flag in the layer
    // position (plain 2D .pl files) means no layer column.
    for (std::size_t i = 3; i + 1 < tokens.size(); ++i) {
      if (tokens[i] == ":" && i + 2 < tokens.size()) {
        if (tokens[i + 2][0] != '/') {
          if (util::Status s =
                  reader.Integer(tokens[i + 2], "layer", &(*layer)[c]);
              !s.ok())
            return s;
        }
        break;
      }
    }
  }
  return util::Status::Ok();
}

util::Status ParseSclFile(const std::string& path,
                          std::vector<BookshelfRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open scl file " + path);
  }
  LineReader reader(in, path);
  BookshelfRow row;
  bool in_row = false;
  double sitewidth = 1.0;
  while (reader.Next()) {
    const auto tokens = Tokenize(reader.line());
    if (tokens[0] == "CoreRow") {
      in_row = true;
      row = BookshelfRow{};
      sitewidth = 1.0;
      continue;
    }
    if (!in_row) continue;
    if (tokens[0] == "End") {
      rows->push_back(row);
      in_row = false;
      continue;
    }
    if (tokens.size() < 3 || tokens[1] != ":") continue;
    // Only the numeric fields are read; Siteorient, Sitesymmetry and the
    // like carry letters and are skipped.
    util::Status s;
    if (tokens[0] == "Coordinate") {
      s = reader.Number(tokens[2], "Coordinate", &row.y);
    } else if (tokens[0] == "Height") {
      s = reader.Number(tokens[2], "Height", &row.height, 0.0, /*strict=*/true);
    } else if (tokens[0] == "Sitewidth") {
      s = reader.Number(tokens[2], "Sitewidth", &sitewidth, 0.0,
                        /*strict=*/true);
    } else if (tokens[0] == "SubrowOrigin") {
      s = reader.Number(tokens[2], "SubrowOrigin", &row.x);
      // "SubrowOrigin : x NumSites : n"
      for (std::size_t i = 3; s.ok() && i + 2 < tokens.size(); ++i) {
        if (tokens[i] == "NumSites" && tokens[i + 1] == ":") {
          double sites = 0.0;
          s = reader.Number(tokens[i + 2], "NumSites", &sites, 0.0);
          row.width = sites * sitewidth;
        }
      }
    }
    if (!s.ok()) return s;
  }
  return util::Status::Ok();
}

util::Status LoadBookshelf(const std::string& aux_path, double unit_m,
                           BookshelfDesign* out) {
  std::ifstream in(aux_path);
  if (!in) {
    return util::IoError("bookshelf: cannot open aux file " + aux_path);
  }
  const std::string dir = DirName(aux_path);
  std::string nodes, nets, pl, scl;
  LineReader reader(in, aux_path);
  while (reader.Next()) {
    for (const std::string& tok : Tokenize(reader.line())) {
      if (tok.ends_with(".nodes")) nodes = dir + "/" + tok;
      else if (tok.ends_with(".nets")) nets = dir + "/" + tok;
      else if (tok.ends_with(".pl")) pl = dir + "/" + tok;
      else if (tok.ends_with(".scl")) scl = dir + "/" + tok;
    }
  }
  if (nodes.empty() || nets.empty()) {
    return util::ParseError("bookshelf: aux file " + aux_path +
                            " names no .nodes/.nets");
  }
  out->unit_m = unit_m;
  if (util::Status s = ParseNodesFile(nodes, unit_m, &out->netlist); !s.ok())
    return s;
  if (util::Status s = ParseNetsFile(nets, unit_m, &out->netlist); !s.ok())
    return s;
  if (!out->netlist.Finalize()) {
    return util::ParseError("bookshelf: design in " + aux_path +
                            " failed netlist finalization");
  }
  if (!pl.empty()) {
    if (util::Status s =
            ParsePlFile(pl, unit_m, out->netlist, &out->x, &out->y, &out->layer);
        !s.ok())
      return s;
  } else {
    out->x.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0.0);
    out->y.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0.0);
    out->layer.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0);
  }
  if (!scl.empty()) {
    if (util::Status s = ParseSclFile(scl, &out->rows); !s.ok()) return s;
  }
  return util::Status::Ok();
}

bool WriteBookshelf(const std::string& dir, const std::string& base,
                    const netlist::Netlist& nl, double unit_m,
                    const place::Chip* chip,
                    const place::Placement* placement) {
  const std::string stem = dir + "/" + base;

  // --- .nodes ---------------------------------------------------------------
  {
    std::ofstream f(stem + ".nodes");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.nodes", stem.c_str());
      return false;
    }
    f.precision(12);
    int terminals = 0;
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      if (nl.cell(c).fixed) ++terminals;
    }
    f << "UCLA nodes 1.0\n\nNumNodes : " << nl.NumCells()
      << "\nNumTerminals : " << terminals << "\n";
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      const auto& cell = nl.cell(c);
      f << '\t' << cell.name << '\t' << cell.width / unit_m << '\t'
        << cell.height / unit_m;
      if (cell.fixed) f << "\tterminal";
      f << '\n';
    }
    if (!f.good()) return false;
  }

  // --- .nets ----------------------------------------------------------------
  {
    std::ofstream f(stem + ".nets");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.nets", stem.c_str());
      return false;
    }
    f.precision(12);
    f << "UCLA nets 1.0\n\nNumNets : " << nl.NumNets()
      << "\nNumPins : " << nl.NumPins() << "\n";
    for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
      f << "NetDegree : " << nl.net(n).num_pins << ' ' << nl.net(n).name
        << '\n';
      for (const netlist::Pin& pin : nl.NetPins(n)) {
        f << '\t' << nl.cell(pin.cell).name << ' '
          << (pin.dir == netlist::PinDir::kOutput ? 'O' : 'I') << " : "
          << pin.dx / unit_m << ' ' << pin.dy / unit_m << '\n';
      }
    }
    if (!f.good()) return false;
  }

  // --- .pl --------------------------------------------------------------------
  {
    std::vector<double> zeros;
    const std::vector<double>* x = placement ? &placement->x : nullptr;
    const std::vector<double>* y = placement ? &placement->y : nullptr;
    const std::vector<int>* layer = placement ? &placement->layer : nullptr;
    std::vector<double> zx, zy;
    std::vector<int> zl;
    if (!placement) {
      zx.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
      zy.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
      zl.assign(static_cast<std::size_t>(nl.NumCells()), 0);
      x = &zx;
      y = &zy;
      layer = &zl;
    }
    if (!WritePlFile(stem + ".pl", nl, *x, *y, *layer, unit_m)) return false;
    (void)zeros;
  }

  // --- .scl (optional) ---------------------------------------------------------
  if (chip != nullptr) {
    std::ofstream f(stem + ".scl");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.scl", stem.c_str());
      return false;
    }
    f.precision(12);
    f << "UCLA scl 1.0\n\nNumRows : " << chip->num_rows() << "\n";
    for (int r = 0; r < chip->num_rows(); ++r) {
      f << "CoreRow Horizontal\n"
        << "  Coordinate : " << chip->RowBottomY(r) / unit_m << "\n"
        << "  Height : " << chip->row_height() / unit_m << "\n"
        << "  Sitewidth : 1\n"
        << "  SubrowOrigin : 0 NumSites : " << chip->width() / unit_m << "\n"
        << "End\n";
    }
    if (!f.good()) return false;
  }

  // --- .aux --------------------------------------------------------------------
  {
    std::ofstream f(stem + ".aux");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.aux", stem.c_str());
      return false;
    }
    f << "RowBasedPlacement : " << base << ".nodes " << base << ".nets "
      << base << ".pl";
    if (chip != nullptr) f << ' ' << base << ".scl";
    f << '\n';
    if (!f.good()) return false;
  }
  return true;
}

bool WritePlFile(const std::string& path, const netlist::Netlist& nl,
                 const std::vector<double>& x, const std::vector<double>& y,
                 const std::vector<int>& layer, double unit_m) {
  std::ofstream out(path);
  if (!out) {
    util::LogError("bookshelf: cannot write pl file %s", path.c_str());
    return false;
  }
  out.precision(12);
  out << "UCLA pl 1.0\n# placer3d 3D placement (layer index after orientation)\n\n";
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    out << nl.cell(c).name << '\t' << x[i] / unit_m << '\t' << y[i] / unit_m
        << "\t: N " << layer[i];
    if (nl.cell(c).fixed) out << " /FIXED";
    out << '\n';
  }
  return out.good();
}

}  // namespace p3d::io
