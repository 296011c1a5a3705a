// placed — batch placement daemon front end over serve::JobEngine.
//
// Reads a jobs manifest ("placer3d.jobs" v1, see src/serve/manifest.h),
// runs every job on a bounded worker pool with the cross-job FEA cache,
// streams one progress line per completed job, and writes the aggregated
// batch report ("placer3d.batch_report" v1).
//
// Usage:
//   placed --manifest jobs.json [options]
//     --manifest PATH     jobs manifest (required)
//     --workers N         engine worker threads (default 4)
//     --thread-budget N   per-job inner-thread budget (default: engine
//                         policy — 1 when workers > 1)
//     --report PATH       write the batch report JSON
//     --telemetry-port N  serve /metrics /jobs /healthz on 127.0.0.1:N
//                         (0 = ephemeral; off when omitted)
//     --stall-timeout S   watchdog: flag jobs with no phase heartbeat for
//                         S seconds (off when omitted)
//     --heartbeat-interval S  stream per-job heartbeat lines to stderr
//                         every S seconds (off when omitted)
//     --blackbox PATH     flight-recorder dump file for audit violations,
//                         stalls, cancellations, and fatal signals
//     --global-backend NAME  override the global-placement backend of every
//                         job in the manifest (bisection)
//     --quiet             errors only
//
// Every --flag also accepts the --flag=value spelling. Progress (per-job
// completion and heartbeat lines) streams to stderr; stdout carries only
// the batch summary, so piping it stays clean.
//
// Exit codes: 0 all jobs placed, 1 runtime error or any job failed,
// 2 usage error, 4 jobs cancelled (deadline misses) but none failed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/global_backend.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "serve/manifest.h"
#include "serve/telemetry.h"
#include "util/log.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

struct Args {
  std::string manifest;
  std::string report;
  std::string blackbox;
  int workers = 4;
  int thread_budget = 0;
  int telemetry_port = -1;        // < 0: no server
  double stall_timeout_s = 0.0;   // 0: no watchdog
  double heartbeat_interval_s = 0.0;  // 0: no heartbeat stream
  bool quiet = false;
  bool override_backend = false;  // --global-backend given
  p3d::place::GlobalBackend global_backend =
      p3d::place::GlobalBackend::kBisection;
};

void PrintUsage() {
  std::puts(
      "usage: placed --manifest jobs.json [--workers N] [--thread-budget N]\n"
      "              [--report batch_report.json] [--telemetry-port N]\n"
      "              [--stall-timeout S] [--heartbeat-interval S]\n"
      "              [--blackbox trace.json] [--global-backend NAME]\n"
      "              [--quiet]");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* flag) -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (a == "--manifest") {
      const char* v = next("--manifest");
      if (!v) return false;
      args->manifest = v;
    } else if (a == "--report") {
      const char* v = next("--report");
      if (!v) return false;
      args->report = v;
    } else if (a == "--workers") {
      const char* v = next("--workers");
      if (!v) return false;
      args->workers = std::atoi(v);
    } else if (a == "--thread-budget") {
      const char* v = next("--thread-budget");
      if (!v) return false;
      args->thread_budget = std::atoi(v);
    } else if (a == "--telemetry-port") {
      const char* v = next("--telemetry-port");
      if (!v) return false;
      args->telemetry_port = std::atoi(v);
    } else if (a == "--stall-timeout") {
      const char* v = next("--stall-timeout");
      if (!v) return false;
      args->stall_timeout_s = std::atof(v);
    } else if (a == "--heartbeat-interval") {
      const char* v = next("--heartbeat-interval");
      if (!v) return false;
      args->heartbeat_interval_s = std::atof(v);
    } else if (a == "--blackbox") {
      const char* v = next("--blackbox");
      if (!v) return false;
      args->blackbox = v;
    } else if (a == "--global-backend") {
      const char* v = next("--global-backend");
      if (!v) return false;
      const auto backend = p3d::place::ParseGlobalBackend(v);
      if (!backend.ok()) {
        std::fprintf(stderr, "%s\n", backend.status().message().c_str());
        return false;
      }
      args->override_backend = true;
      args->global_backend = *backend;
    } else if (a == "--quiet") {
      args->quiet = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      PrintUsage();
      return false;
    }
  }
  if (args->manifest.empty()) {
    std::fprintf(stderr, "--manifest is required\n");
    PrintUsage();
    return false;
  }
  if (args->workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  p3d::util::SetLogLevel(args.quiet ? p3d::util::LogLevel::kError
                                    : p3d::util::LogLevel::kWarn);

  // The black box is always on: a fixed-size ring per thread, dumped on
  // audit violations, watchdog stalls, cancellations, and fatal signals.
  // Recording never perturbs placement (DESIGN.md §7).
  static p3d::obs::RingRecorder ring;  // outlives every early-return path
  p3d::obs::InstallRingRecorder(&ring);
  if (!args.blackbox.empty()) {
    if (!p3d::obs::SetBlackBoxPath(args.blackbox)) {
      std::fprintf(stderr, "invalid --blackbox path\n");
      return 2;
    }
    p3d::obs::InstallCrashHandler();
  }

  // Process-wide registry behind /metrics: engine-level counters land here;
  // per-job registries stay thread-local inside the workers.
  p3d::obs::MetricsRegistry metrics;
  p3d::obs::InstallMetrics(&metrics);

  auto manifest_or = p3d::serve::LoadJobsManifest(args.manifest);
  if (!manifest_or.ok()) {
    std::fprintf(stderr, "%s\n", manifest_or.status().ToString().c_str());
    return manifest_or.status().code() ==
                   p3d::util::StatusCode::kInvalidArgument
               ? 2
               : 1;
  }
  p3d::serve::JobsManifest manifest = *std::move(manifest_or);
  if (manifest.jobs.empty()) {
    std::fprintf(stderr, "manifest has no jobs\n");
    return 2;
  }
  if (args.override_backend) {
    for (p3d::serve::JobSpec& spec : manifest.jobs) {
      spec.params.global_backend = args.global_backend;
    }
  }

  p3d::serve::JobEngineOptions engine_opts;
  engine_opts.num_workers = args.workers;
  engine_opts.thread_budget = args.thread_budget;
  engine_opts.stall_timeout_s = args.stall_timeout_s;
  p3d::serve::JobEngine engine(engine_opts);
  std::printf("placed: %zu jobs on %d workers (per-job thread budget %s)\n",
              manifest.jobs.size(), engine.num_workers(),
              engine.job_thread_budget() > 0
                  ? std::to_string(engine.job_thread_budget()).c_str()
                  : "unlimited");

  p3d::serve::TelemetryServer telemetry;
  if (args.telemetry_port >= 0) {
    p3d::serve::TelemetryOptions topts;
    topts.port = args.telemetry_port;
    topts.metrics = &metrics;
    topts.engine = &engine;
    const p3d::util::Status started = telemetry.Start(topts);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry: http://127.0.0.1:%d  (/metrics /jobs "
                 "/healthz)\n",
                 telemetry.port());
  }

  // Streamed progress: the callback runs serialized on the completing
  // worker, so one line per finished job in completion order. Lines go to
  // stderr — stdout is reserved for the batch summary.
  const std::size_t total = manifest.jobs.size();
  engine.SetCompletionCallback([total](p3d::serve::JobHandle,
                                       const std::string& name,
                                       const p3d::serve::JobResult& result) {
    static std::size_t done = 0;  // callback is serialized by the engine
    ++done;
    if (result.status.ok()) {
      const auto& r = result.placement;
      std::fprintf(stderr,
                   "[%zu/%zu] %-24s ok         hpwl %.5g m | %lld vias | "
                   "%.2fs%s\n",
                   done, total, name.c_str(), r.hpwl_m, r.ilv_count,
                   result.wall_s, result.stalled ? " | STALLED" : "");
    } else {
      std::fprintf(stderr, "[%zu/%zu] %-24s %-10s %s\n", done, total,
                   name.c_str(),
                   p3d::util::IsCancelled(result.status) ? "cancelled"
                                                         : "FAILED",
                   result.status.message().c_str());
    }
  });

  p3d::util::Timer timer;
  std::vector<p3d::serve::JobHandle> handles;
  handles.reserve(manifest.jobs.size());
  for (p3d::serve::JobSpec& spec : manifest.jobs) {
    auto handle_or = engine.Submit(std::move(spec));
    if (!handle_or.ok()) {
      std::fprintf(stderr, "submit: %s\n",
                   handle_or.status().ToString().c_str());
      return 1;
    }
    handles.push_back(*handle_or);
  }

  // Optional heartbeat stream: one stderr line per running job per tick,
  // built from the same SnapshotJobs() view the /jobs endpoint serves.
  std::atomic<bool> reporter_stop{false};
  std::thread reporter;
  if (args.heartbeat_interval_s > 0.0) {
    reporter = std::thread([&engine, &reporter_stop,
                            interval = args.heartbeat_interval_s] {
      const auto tick = std::chrono::duration<double>(interval);
      while (!reporter_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(tick);
        if (reporter_stop.load(std::memory_order_acquire)) break;
        for (const auto& v : engine.SnapshotJobs()) {
          if (v.state != p3d::serve::JobState::kRunning) continue;
          std::fprintf(stderr,
                       "heartbeat %-24s phase %s#%d | %lld beats | "
                       "last %.1fs ago%s\n",
                       v.name.c_str(), v.phase.empty() ? "-" : v.phase.c_str(),
                       v.round, v.heartbeats, v.since_beat_s,
                       v.stalled ? " | STALLED" : "");
        }
      }
    });
  }

  engine.WaitAll();
  reporter_stop.store(true, std::memory_order_release);
  if (reporter.joinable()) reporter.join();
  const double wall_s = timer.Seconds();

  const p3d::serve::JobEngine::Stats stats = engine.GetStats();
  std::printf(
      "placed: %lld ok, %lld cancelled, %lld failed, %lld stalls in %.2fs "
      "(fea cache: %lld hits, %lld misses, %lld evictions)\n",
      stats.completed, stats.cancelled, stats.failed, stats.stalled, wall_s,
      stats.fea_cache.hits, stats.fea_cache.misses,
      stats.fea_cache.evictions);

  if (!args.report.empty()) {
    const p3d::obs::JsonValue report =
        p3d::serve::BuildBatchReport(engine, handles);
    std::string error;
    if (!p3d::serve::ValidateBatchReport(report, &error)) {
      std::fprintf(stderr, "internal: batch report invalid: %s\n",
                   error.c_str());
      return 1;
    }
    if (!p3d::serve::WriteBatchReport(report, args.report)) {
      std::fprintf(stderr, "failed to write %s\n", args.report.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.report.c_str());
  }

  if (stats.failed > 0) return 1;
  if (stats.cancelled > 0) return 4;
  return 0;
}
