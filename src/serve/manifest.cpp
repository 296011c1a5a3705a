#include "serve/manifest.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/synthetic.h"
#include "obs/json.h"
#include "place/params.h"
#include "runtime/stream.h"

namespace p3d::serve {
namespace {

/// Job-level field with fallback to the manifest's `defaults` object.
const obs::JsonValue* Lookup(const obs::JsonValue& job,
                             const obs::JsonValue* defaults,
                             const std::string& key) {
  if (const obs::JsonValue* v = job.Find(key)) return v;
  if (defaults != nullptr) return defaults->Find(key);
  return nullptr;
}

util::Status FieldTypeError(std::size_t job_index, const std::string& key,
                            const std::string& want) {
  return util::ParseError("jobs manifest: job " + std::to_string(job_index) +
                          ": field '" + key + "' must be a " + want);
}

/// The document's own keys, and every field a job or `defaults` may set
/// (documented in manifest.h).
constexpr std::string_view kDocumentFields[] = {"schema", "version", "seed",
                                                "defaults", "jobs"};
constexpr std::string_view kJobFields[] = {
    "name",     "circuit",  "scale",         "layers",
    "alpha_ilv", "alpha_temp", "seed",       "priority",
    "threads",  "with_fea", "fea_per_phase", "fea_per_pass",
    "start_deadline_s",
};

/// The first key of `obj` outside `fields`, or nullptr.
const std::string* UnknownField(const obs::JsonValue& obj,
                                std::span<const std::string_view> fields) {
  for (const auto& [key, value] : obj.AsObject()) {
    if (std::ranges::find(fields, key) == fields.end()) return &key;
  }
  return nullptr;
}

/// True when `v` is a whole number in [lo, hi]; checked before any cast to
/// an integer type, which is undefined for out-of-range doubles.
bool IsIntegerIn(const obs::JsonValue& v, double lo, double hi) {
  if (!v.is_number()) return false;
  const double x = v.AsNumber();
  return x >= lo && x <= hi && std::floor(x) == x;
}

// Seeds are cast to uint64; 2^63 keeps every accepted double in range.
constexpr double kMaxSeed = 9223372036854775808.0;
constexpr double kMaxPriority = 1e6;

}  // namespace

util::StatusOr<JobsManifest> ParseJobsManifest(const std::string& text) {
  obs::JsonValue doc;
  std::string json_error;
  if (!obs::ParseJson(text, &doc, &json_error)) {
    return util::ParseError("jobs manifest: " + json_error);
  }
  if (!doc.is_object()) {
    return util::ParseError("jobs manifest: document is not an object");
  }
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kJobsManifestSchema) {
    return util::ParseError(std::string("jobs manifest: schema must be \"") +
                            kJobsManifestSchema + "\"");
  }
  const obs::JsonValue* version = doc.Find("version");
  if (version == nullptr || !version->is_number() ||
      version->AsNumber() != kJobsManifestVersion) {
    return util::ParseError("jobs manifest: unsupported version");
  }
  if (const std::string* key = UnknownField(doc, kDocumentFields)) {
    return util::ParseError("jobs manifest: unknown field '" + *key + "'");
  }

  JobsManifest manifest;
  if (const obs::JsonValue* seed = doc.Find("seed")) {
    if (!IsIntegerIn(*seed, 0.0, kMaxSeed)) {
      return util::ParseError(
          "jobs manifest: 'seed' must be a non-negative integer");
    }
    manifest.base_seed = static_cast<std::uint64_t>(seed->AsNumber());
  }

  const obs::JsonValue* defaults = doc.Find("defaults");
  if (defaults != nullptr && !defaults->is_object()) {
    return util::ParseError("jobs manifest: 'defaults' must be an object");
  }
  if (defaults != nullptr) {
    if (const std::string* key = UnknownField(*defaults, kJobFields)) {
      return util::ParseError("jobs manifest: defaults: unknown field '" +
                              *key + "'");
    }
  }

  const obs::JsonValue* jobs = doc.Find("jobs");
  if (jobs == nullptr || !jobs->is_array() || jobs->AsArray().empty()) {
    return util::ParseError(
        "jobs manifest: 'jobs' must be a non-empty array");
  }

  // Netlists deduplicated by (circuit, scale); generated lazily on first use.
  std::vector<std::pair<std::string, double>> circuit_keys;

  for (std::size_t i = 0; i < jobs->AsArray().size(); ++i) {
    const obs::JsonValue& jv = jobs->AsArray()[i];
    if (!jv.is_object()) {
      return util::ParseError("jobs manifest: job " + std::to_string(i) +
                              " is not an object");
    }
    if (const std::string* key = UnknownField(jv, kJobFields)) {
      return util::ParseError("jobs manifest: job " + std::to_string(i) +
                              ": unknown field '" + *key + "'");
    }

    std::string circuit = "ibm01";
    double scale = 0.05;
    JobSpec spec;
    spec.params.seed = runtime::DeriveSeed(manifest.base_seed, i);

    if (const auto* v = Lookup(jv, defaults, "name")) {
      if (!v->is_string()) return FieldTypeError(i, "name", "string");
      spec.name = v->AsString();
    }
    if (const auto* v = Lookup(jv, defaults, "circuit")) {
      if (!v->is_string()) return FieldTypeError(i, "circuit", "string");
      circuit = v->AsString();
    }
    if (const auto* v = Lookup(jv, defaults, "scale")) {
      if (!v->is_number() || !(v->AsNumber() > 0.0)) {
        return FieldTypeError(i, "scale", "positive number");
      }
      scale = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "layers")) {
      if (!IsIntegerIn(*v, 1, place::kMaxLayers)) {
        return FieldTypeError(
            i, "layers",
            "integer in [1, " + std::to_string(place::kMaxLayers) + "]");
      }
      spec.params.num_layers = static_cast<int>(v->AsNumber());
    }
    if (const auto* v = Lookup(jv, defaults, "alpha_ilv")) {
      if (!v->is_number()) return FieldTypeError(i, "alpha_ilv", "number");
      spec.params.alpha_ilv = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "alpha_temp")) {
      if (!v->is_number()) return FieldTypeError(i, "alpha_temp", "number");
      spec.params.alpha_temp = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "seed")) {
      if (!IsIntegerIn(*v, 0.0, kMaxSeed)) {
        return FieldTypeError(i, "seed", "non-negative integer");
      }
      spec.params.seed = static_cast<std::uint64_t>(v->AsNumber());
    }
    if (const auto* v = Lookup(jv, defaults, "threads")) {
      if (!IsIntegerIn(*v, 0, place::kMaxThreads)) {
        return FieldTypeError(
            i, "threads",
            "integer in [0, " + std::to_string(place::kMaxThreads) + "]");
      }
      spec.params.threads = static_cast<int>(v->AsNumber());
    }
    if (const auto* v = Lookup(jv, defaults, "priority")) {
      if (!IsIntegerIn(*v, -kMaxPriority, kMaxPriority)) {
        return FieldTypeError(i, "priority", "integer in [-1e6, 1e6]");
      }
      spec.priority = static_cast<int>(v->AsNumber());
    }
    if (const auto* v = Lookup(jv, defaults, "with_fea")) {
      if (!v->is_bool()) return FieldTypeError(i, "with_fea", "bool");
      spec.options.with_fea = v->AsBool();
    }
    if (const auto* v = Lookup(jv, defaults, "fea_per_phase")) {
      if (!v->is_bool()) return FieldTypeError(i, "fea_per_phase", "bool");
      spec.options.fea_per_phase = v->AsBool();
    }
    if (const auto* v = Lookup(jv, defaults, "fea_per_pass")) {
      if (!v->is_bool()) return FieldTypeError(i, "fea_per_pass", "bool");
      spec.params.fea_per_pass = v->AsBool();
    }
    if (const auto* v = Lookup(jv, defaults, "start_deadline_s")) {
      if (!v->is_number() || v->AsNumber() < 0.0) {
        return FieldTypeError(i, "start_deadline_s", "non-negative number");
      }
      spec.start_deadline_s = v->AsNumber();
    }
    if (spec.name.empty()) {
      spec.name = circuit + "-job" + std::to_string(i + 1);
    }

    std::size_t circuit_index = circuit_keys.size();
    for (std::size_t k = 0; k < circuit_keys.size(); ++k) {
      if (circuit_keys[k].first == circuit &&
          circuit_keys[k].second == scale) {
        circuit_index = k;
        break;
      }
    }
    if (circuit_index == circuit_keys.size()) {
      io::SyntheticSpec synth;
      try {
        synth = io::Table1Spec(circuit, scale);
      } catch (const std::exception& e) {
        return util::ParseError("jobs manifest: job " + std::to_string(i) +
                                ": " + e.what());
      }
      manifest.netlists.push_back(
          std::make_shared<const netlist::Netlist>(io::Generate(synth)));
      circuit_keys.emplace_back(circuit, scale);
    }
    spec.netlist = manifest.netlists[circuit_index].get();
    spec.circuit = circuit;
    spec.circuit_scale = scale;
    place::CompensateWireCapForScale(&spec.params, scale);
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

util::StatusOr<JobsManifest> LoadJobsManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::NotFoundError("jobs manifest: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return util::IoError("jobs manifest: read failed for " + path);
  }
  return ParseJobsManifest(buffer.str());
}

}  // namespace p3d::serve
