// Campaign CLI: runs any named scenario preset across the work-stealing
// worker pool and emits CSV/JSON aggregates; runs one shard of a
// multi-process campaign (--shards/--shard/--emit-chunks) writing a
// mergeable chunk stream; merges shard streams back into reports
// byte-identical to a serial run (--merge); salvages and re-runs the
// lost chunks of failed shard runs (--recover); and runs all K shards
// through the fault-tolerant dispatcher (--dispatch). Aggregates are
// bit-identical across every combination by construction.
//
// Observability: --metrics-json writes the merged counter/phase-timer
// report (serial, parallel, per-shard, or aggregated across shards by
// --merge from the chunk-stream trailers); --trace writes a Chrome
// trace-event timeline (chrome://tracing / Perfetto) of workers, chunks,
// steals and warm-ups. Neither changes any aggregate or report byte (see
// src/obs/metrics.hpp).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace hs;

namespace {

void list_presets(std::FILE* out) {
  std::fprintf(out, "%-28s %-26s %s\n", "scenario", "reproduces",
               "description");
  for (const auto& s : campaign::scenario_presets()) {
    char shape[48];
    std::snprintf(shape, sizeof shape, "  (%zu points x %zu trials)",
                  s.point_count(), s.default_trials);
    std::fprintf(out, "%-28s %-26s %s%s\n", s.name.c_str(),
                 s.paper_ref.c_str(), s.description.c_str(), shape);
  }
}

/// `--list --json`: the preset list as machine-readable JSON, so tools
/// (CI matrix generators, scripts) stop scraping the human table.
void list_presets_json(std::FILE* out) {
  std::string doc = "[\n";
  const auto& presets = campaign::scenario_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto& s = presets[i];
    doc += "  {\"name\": \"" + campaign::json_escape(s.name) +
           "\", \"paper_ref\": \"" + campaign::json_escape(s.paper_ref) +
           "\", \"description\": \"" + campaign::json_escape(s.description) +
           "\", \"kind\": \"" +
           std::string(campaign::experiment_kind_name(s.kind)) +
           "\", \"axis\": \"" +
           std::string(campaign::axis_name(s.axis)) + "\"";
    char shape[96];
    std::snprintf(shape, sizeof shape,
                  ", \"points\": %zu, \"trials\": %zu, "
                  "\"units_per_trial\": %zu}",
                  s.point_count(), s.default_trials, s.units_per_trial);
    doc += shape;
    doc += i + 1 < presets.size() ? ",\n" : "\n";
  }
  doc += "]\n";
  std::fputs(doc.c_str(), out);
}

/// `--version`: every schema this binary reads or writes, one per line,
/// machine-greppable. Scripts (CI) use it to confirm a
/// binary and a recorded artifact speak the same format.
void print_versions(std::FILE* out) {
  std::fprintf(out, "chunk-stream %d\nmetrics %d\ntrace %d\n",
               campaign::kChunkStreamVersion, obs::kMetricsVersion,
               obs::kTraceVersion);
}

int usage(const char* argv0, bool is_error) {
  // Help goes to stdout (it was asked for); an unknown flag's usage dump
  // goes to stderr so it cannot pollute piped CSV/JSON output.
  std::fprintf(
      is_error ? stderr : stdout,
      "usage: %s [--list [--json]] [--scenario=NAME] [--seed=N]\n"
      "          [--trials=N] [--threads=N] [--chunk=N] [--no-reuse]\n"
      "          [--canonical] [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH] [--trace=PATH] [--version]\n"
      "          [--timeout-seconds=N]\n"
      "       %s --shards=K --shard=I --emit-chunks=PATH [run options]\n"
      "          [--chunks=ID,ID,...] [--fault-plan=SPEC]\n"
      "       %s --merge A.jsonl B.jsonl ... [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH]\n"
      "       %s --recover A.jsonl B.jsonl ... [--threads=N] [--csv=PATH]\n"
      "          [--json=PATH] [--metrics-json=PATH]\n"
      "       %s --dispatch --shards=K [--executor=thread|process]\n"
      "          [--workdir=DIR] [--fault-plan=SPEC] [--max-rounds=N]\n"
      "          [run options] [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH]\n"
      "  Every value flag also accepts the space-separated form\n"
      "  (--shards 3). --threads=0 uses all hardware threads (default).\n"
      "  --list --json emits the preset list as machine-readable JSON.\n"
      "  --no-reuse rebuilds the deployment for every trial instead of\n"
      "  reset-and-reseeding the worker's pooled one (identical\n"
      "  aggregates, slower; the escape hatch for A/B timing). Either\n"
      "  way a newly built deployment simulates its warm-up, and a\n"
      "  reset one replays it.\n"
      "  --canonical zeroes the runtime fields (wall time, threads) in\n"
      "  reports so they diff cleanly against a --merge report.\n"
      "  --shards/--shard/--emit-chunks run one deterministic shard of\n"
      "  the campaign and write its chunk stream (JSONL); shards never\n"
      "  communicate, and --merge folds their streams into aggregates\n"
      "  byte-identical to the serial run (--dispatch drives the whole\n"
      "  flow in one command). Shard runs print `shard i/K: chunks c/C`\n"
      "  progress lines to stderr.\n"
      "  --metrics-json writes the counter + phase-timer report (schema\n"
      "  in docs/REPRODUCING.md); in --merge mode it aggregates the K\n"
      "  shard trailers. --trace writes a Chrome trace-event timeline\n"
      "  (load in chrome://tracing or Perfetto). Neither changes any\n"
      "  aggregate or report byte. --version prints the schema versions\n"
      "  this binary speaks.\n"
      "  --chunks runs an explicit chunk-id set (a dispatcher re-deal)\n"
      "  instead of the round-robin deal; the stream is written in\n"
      "  repair mode. --fault-plan injects deterministic faults into\n"
      "  this shard's stream (kill:I@C, trunc:I@BYTES, truncl:I@LINES,\n"
      "  delay:I@WAVES, corrupt:I@LINE, comma-separated); a kill exits\n"
      "  with status 70 after writing the truncated stream.\n"
      "  --timeout-seconds aborts a hung run: if the campaign has not\n"
      "  finished after N seconds the process prints a partial-progress\n"
      "  line (chunks completed) to stderr and exits with status 124.\n"
      "  --recover salvages the valid prefix of each (possibly\n"
      "  truncated/corrupted/missing) stream, re-runs only the missing\n"
      "  chunks in-process, and writes reports byte-identical to the\n"
      "  serial run. --dispatch runs the whole campaign through the\n"
      "  fault-tolerant dispatcher (thread executor, or process\n"
      "  executor spawning this binary; --workdir, which must exist,\n"
      "  holds the child streams).\n",
      argv0, argv0, argv0, argv0, argv0);
  return is_error ? 1 : 0;
}

/// Matches "--name=value" or "--name value"; advances *i past a consumed
/// extra argument. Returns nullptr when `arg` is not this flag. The
/// space-separated form refuses a value starting with '-' so a forgotten
/// value ("--seed --trials=5") fails as an unknown flag instead of
/// silently swallowing the next option.
const char* flag_value(const char* arg, const char* name, int argc,
                       char** argv, int* i) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc && argv[*i + 1][0] != '-') {
    return argv[++*i];
  }
  return nullptr;
}

/// strtoull with a full-consumption check: garbage or overflow is a hard
/// error, never a silent zero. Signs are rejected up front — strtoull
/// happily parses "-5" and wraps it to 2^64-5, which would turn a typo'd
/// seed into a silently different campaign.
std::uint64_t parse_u64(const char* value, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(value, &end, 10);
  if (value[0] == '\0' || value[0] == '-' || value[0] == '+' ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid numeric value '%s' for %s\n", value, flag);
    std::exit(1);
  }
  return v;
}

/// parse_u64 bounded to values that survive a cast to `unsigned`
/// (--threads): out-of-range is a hard error, not a silent truncation.
unsigned parse_u32(const char* value, const char* flag) {
  const std::uint64_t v = parse_u64(value, flag);
  if (v > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "value '%s' out of range for %s\n", value, flag);
    std::exit(1);
  }
  return static_cast<unsigned>(v);
}

/// `--timeout-seconds`: a detached-from-the-campaign watchdog thread.
/// If the campaign has not finished when the deadline passes, it prints
/// a partial-progress line (chunks completed out of the known total, fed
/// by CampaignOptions::chunks_completed) to stderr and hard-exits with
/// status 124 — the conventional timeout status — so CI and the
/// dispatcher can tell a hang from a crash. _Exit skips destructors
/// on purpose: worker threads are by definition wedged.
class Watchdog {
 public:
  Watchdog(std::uint64_t timeout_seconds, const std::string& label,
           std::atomic<std::size_t>* progress)
      : progress_(progress) {
    if (timeout_seconds == 0) return;
    thread_ = std::thread([this, timeout_seconds, label] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, std::chrono::seconds(timeout_seconds),
                       [this] { return done_; })) {
        return;
      }
      if (total_chunks_ > 0) {
        std::fprintf(stderr,
                     "FATAL: %s timed out after %llu s: %zu/%zu chunk(s) "
                     "completed\n",
                     label.c_str(),
                     static_cast<unsigned long long>(timeout_seconds),
                     progress_->load(), total_chunks_);
      } else {
        std::fprintf(stderr,
                     "FATAL: %s timed out after %llu s: %zu chunk(s) "
                     "completed\n",
                     label.c_str(),
                     static_cast<unsigned long long>(timeout_seconds),
                     progress_->load());
      }
      std::_Exit(124);
    });
  }

  /// Arms the "c/C" form of the progress line once the chunk plan is
  /// known. Safe to skip — the watchdog then reports the bare count.
  void set_total_chunks(std::size_t total) {
    std::lock_guard<std::mutex> lock(mutex_);
    total_chunks_ = total;
  }

  ~Watchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::atomic<std::size_t>* progress_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::size_t total_chunks_ = 0;  ///< guarded by mutex_
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "fig9-eaves-ber";
  campaign::CampaignOptions options;
  options.threads = 0;  // hardware concurrency
  std::string csv_path, json_path, emit_chunks_path;
  std::string metrics_json_path, trace_path;
  std::string fault_plan_spec, chunks_spec, executor_name = "thread";
  std::string workdir;
  std::size_t shard_count = 0, shard_index = 0, max_rounds = 4;
  std::uint64_t timeout_seconds = 0;
  bool have_shard_index = false, merge_mode = false, canonical = false;
  bool list_mode = false, list_json = false;
  bool recover_mode = false, dispatch_mode = false;
  std::vector<std::string> merge_files;
  // First run-shaping flag seen (--merge rejects it: nothing executes),
  // and first campaign-identity flag seen (--recover rejects it: the
  // stream headers fix the identity, while --threads &co still shape
  // the repair execution).
  const char* run_flag = nullptr;
  const char* identity_flag = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--list") == 0) {
      list_mode = true;
    } else if (std::strcmp(arg, "--version") == 0) {
      print_versions(stdout);
      return 0;
    } else if ((value = flag_value(arg, "--metrics-json", argc, argv, &i))) {
      metrics_json_path = value;
    } else if ((value = flag_value(arg, "--trace", argc, argv, &i))) {
      trace_path = value;
    } else if (std::strcmp(arg, "--merge") == 0) {
      merge_mode = true;
    } else if (std::strcmp(arg, "--recover") == 0) {
      recover_mode = true;
    } else if (std::strcmp(arg, "--dispatch") == 0) {
      dispatch_mode = true;
    } else if ((value = flag_value(arg, "--fault-plan", argc, argv, &i))) {
      fault_plan_spec = value;
    } else if ((value = flag_value(arg, "--chunks", argc, argv, &i))) {
      chunks_spec = value;
    } else if ((value = flag_value(arg, "--executor", argc, argv, &i))) {
      executor_name = value;
    } else if ((value = flag_value(arg, "--workdir", argc, argv, &i))) {
      workdir = value;
    } else if ((value = flag_value(arg, "--max-rounds", argc, argv, &i))) {
      max_rounds = parse_u64(value, "--max-rounds");
    } else if ((value = flag_value(arg, "--timeout-seconds", argc, argv, &i))) {
      timeout_seconds = parse_u64(value, "--timeout-seconds");
    } else if (std::strcmp(arg, "--no-reuse") == 0) {
      options.reuse_deployments = false;
      run_flag = "--no-reuse";
    } else if (std::strcmp(arg, "--canonical") == 0) {
      canonical = true;
    } else if ((value = flag_value(arg, "--scenario", argc, argv, &i))) {
      scenario_name = value;
      run_flag = identity_flag = "--scenario";
    } else if ((value = flag_value(arg, "--seed", argc, argv, &i))) {
      options.seed = parse_u64(value, "--seed");
      run_flag = identity_flag = "--seed";
    } else if ((value = flag_value(arg, "--trials", argc, argv, &i))) {
      options.trials_per_point = parse_u64(value, "--trials");
      run_flag = identity_flag = "--trials";
    } else if ((value = flag_value(arg, "--threads", argc, argv, &i))) {
      options.threads = parse_u32(value, "--threads");
      run_flag = "--threads";
    } else if ((value = flag_value(arg, "--chunk", argc, argv, &i))) {
      options.chunk_size = parse_u64(value, "--chunk");
      run_flag = identity_flag = "--chunk";
    } else if ((value = flag_value(arg, "--shards", argc, argv, &i))) {
      shard_count = parse_u64(value, "--shards");
    } else if ((value = flag_value(arg, "--shard", argc, argv, &i))) {
      shard_index = parse_u64(value, "--shard");
      have_shard_index = true;
    } else if ((value = flag_value(arg, "--emit-chunks", argc, argv, &i))) {
      emit_chunks_path = value;
    } else if ((value = flag_value(arg, "--csv", argc, argv, &i))) {
      csv_path = value;
    } else if ((value = flag_value(arg, "--json", argc, argv, &i))) {
      json_path = value;
    } else if (std::strcmp(arg, "--json") == 0) {
      // Bare --json (no value) selects the machine-readable preset list;
      // --json=PATH / --json PATH stays the report destination above.
      list_json = true;
    } else if (arg[0] != '-' && (merge_mode || recover_mode)) {
      merge_files.push_back(arg);
    } else {
      return usage(argv[0], std::strcmp(arg, "--help") != 0);
    }
  }

  if (list_mode) {
    if (list_json) {
      list_presets_json(stdout);
    } else {
      list_presets(stdout);
    }
    return 0;
  }
  if (list_json) {
    std::fprintf(stderr, "bare --json selects the JSON preset list and "
                         "needs --list (use --json=PATH for a report)\n");
    return 1;
  }

  const int mode_count = (merge_mode ? 1 : 0) + (recover_mode ? 1 : 0) +
                         (dispatch_mode ? 1 : 0);
  if (mode_count > 1) {
    std::fprintf(stderr,
                 "--merge, --recover and --dispatch are mutually "
                 "exclusive modes\n");
    return 1;
  }

  // `--timeout-seconds` watchdog. Armed here so it covers every
  // executing mode (normal run, shard, --recover re-runs, --dispatch)
  // and even a wedged --merge parse; the chunk
  // progress counter is fed by the runner through
  // CampaignOptions::chunks_completed.
  std::atomic<std::size_t> watchdog_chunks{0};
  if (timeout_seconds > 0) options.chunks_completed = &watchdog_chunks;
  Watchdog watchdog(timeout_seconds, "campaign_runner", &watchdog_chunks);

  // ---- merge / recover: fold recorded streams through the cover ----
  // --merge is the strict cover (complete deal streams, no reruns);
  // --recover also takes salvaged prefixes and re-runs what is missing.
  if (merge_mode || recover_mode) {
    const char* mode = merge_mode ? "--merge" : "--recover";
    if (merge_files.empty()) {
      std::fprintf(stderr, "%s needs the chunk-stream files of the shard "
                           "runs\n", mode);
      return 1;
    }
    if (!emit_chunks_path.empty() || shard_count > 0 || have_shard_index ||
        !trace_path.empty() || !fault_plan_spec.empty() ||
        !chunks_spec.empty()) {
      std::fprintf(stderr,
                   "%s folds recorded streams; it cannot be combined with "
                   "--emit-chunks, --shards, --shard, --trace, "
                   "--fault-plan or --chunks\n",
                   mode);
      return 1;
    }
    // --merge executes nothing, so every run-shaping flag would be
    // ignored; --recover's repair run still honours the execution knobs.
    const char* ignored = merge_mode ? run_flag : identity_flag;
    if (ignored != nullptr) {
      std::fprintf(stderr,
                   "%s takes the campaign from the stream headers — %s "
                   "would be silently ignored; drop it\n",
                   mode, ignored);
      return 1;
    }
    try {
      std::vector<campaign::ChunkStream> streams;
      streams.reserve(merge_files.size());
      for (const auto& path : merge_files) {
        streams.push_back(campaign::load_chunk_stream(path));
        const auto& s = streams.back();
        if (!recover_mode) continue;
        if (s.complete) {
          std::fprintf(stderr, "recover: %s: complete (%zu chunks)\n",
                       path.c_str(), s.chunks.size());
        } else {
          // The reason already names the file (and the line at fault).
          std::fprintf(stderr, "recover: salvaged %zu chunk(s) — %s\n",
                       s.chunks.size(), s.truncation_reason.c_str());
        }
      }
      const auto first = std::find_if(
          streams.begin(), streams.end(),
          [](const campaign::ChunkStream& s) { return s.header_valid; });
      if (first == streams.end()) {
        if (merge_mode) campaign::require_complete(streams.front());
        std::fprintf(stderr, "recover: no stream has a salvageable header\n");
        return 1;
      }
      const campaign::Scenario* scenario =
          campaign::find_scenario(first->header.scenario);
      if (!scenario) {
        std::fprintf(stderr, "unknown scenario '%s' in %s\n",
                     first->header.scenario.c_str(), first->source.c_str());
        return 1;
      }
      const std::size_t stream_count = streams.size();
      const std::size_t total_chunks = first->header.total_chunks;
      campaign::CampaignResult result;
      campaign::MergedMetrics merged;
      campaign::DispatchReport drep;
      if (merge_mode) {
        result = campaign::merge_chunk_streams(*scenario, std::move(streams),
                                               &merged);
      } else {
        result = campaign::recover_campaign(*scenario, options,
                                            std::move(streams), &drep);
        merged = drep.metrics;
      }
      campaign::print_summary(stdout, result);
      if (merge_mode) {
        std::printf("\n  merged %zu shard stream(s), %zu chunks verified\n",
                    stream_count, total_chunks);
      } else {
        std::printf("\n  recovered: %zu stream(s) complete, %zu dead, "
                    "%zu chunk(s) re-dealt, %zu duplicate(s) suppressed\n",
                    drep.streams_complete, drep.shards_dead,
                    drep.chunks_redealt, drep.chunks_duplicate);
      }
      if (!csv_path.empty() &&
          !campaign::write_file(csv_path, campaign::to_csv(result))) {
        return 1;
      }
      if (!json_path.empty() &&
          !campaign::write_file(json_path, campaign::to_json(result))) {
        return 1;
      }
      if (!metrics_json_path.empty()) {
        // The summed trailers of the complete streams. wall_seconds is
        // total shard wall time (compute budget, not elapsed time — the
        // shards ran as separate processes, possibly concurrently).
        const std::string doc = campaign::metrics_report_json(
            result.scenario.name, result.options.seed, merged.shards,
            merged.threads, static_cast<double>(merged.wall_ns) / 1e9,
            merged.report);
        if (!campaign::write_file(metrics_json_path, doc)) return 1;
      }
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  // ---- shard-flag validation ----
  if (have_shard_index && shard_count == 0) {
    std::fprintf(stderr, "--shard requires --shards=K\n");
    return 1;
  }
  if (dispatch_mode) {
    if (shard_count == 0) {
      std::fprintf(stderr, "--dispatch requires --shards=K\n");
      return 1;
    }
    if (have_shard_index || !emit_chunks_path.empty() ||
        !chunks_spec.empty() || !trace_path.empty()) {
      std::fprintf(stderr,
                   "--dispatch runs (and recovers) all K shards itself; "
                   "it cannot be combined with --shard, --emit-chunks, "
                   "--chunks or --trace\n");
      return 1;
    }
    if (executor_name != "thread" && executor_name != "process") {
      std::fprintf(stderr, "--executor must be 'thread' or 'process'\n");
      return 1;
    }
    if (executor_name == "process" && workdir.empty()) {
      std::fprintf(stderr,
                   "--executor=process needs --workdir=DIR (an existing "
                   "directory for the child shard streams)\n");
      return 1;
    }
  } else if (shard_count > 0 &&
             (!have_shard_index || emit_chunks_path.empty())) {
    std::fprintf(stderr,
                 "--shards needs both --shard=I and --emit-chunks=PATH "
                 "(a shard run only makes sense if its chunk stream is "
                 "kept for the merge)\n");
    return 1;
  }
  if (!chunks_spec.empty() && shard_count == 0) {
    std::fprintf(stderr,
                 "--chunks re-runs an explicit chunk set as a repair "
                 "stream; it needs --shards/--shard/--emit-chunks\n");
    return 1;
  }
  if (!fault_plan_spec.empty() && shard_count == 0) {
    std::fprintf(stderr,
                 "--fault-plan injects faults into a shard run or a "
                 "--dispatch campaign; it needs --shards\n");
    return 1;
  }
  if (shard_count > 0 && shard_index >= shard_count) {
    std::fprintf(stderr, "--shard=%zu out of range for --shards=%zu\n",
                 shard_index, shard_count);
    return 1;
  }
  if (!emit_chunks_path.empty() && shard_count == 0) {
    std::fprintf(stderr, "--emit-chunks requires --shards and --shard\n");
    return 1;
  }
  if (!emit_chunks_path.empty() && (!csv_path.empty() || !json_path.empty())) {
    std::fprintf(stderr,
                 "--emit-chunks writes one shard's chunk stream; partial "
                 "aggregates would be misleading — use --merge on all "
                 "shard streams to produce CSV/JSON reports\n");
    return 1;
  }

  const campaign::Scenario* scenario = campaign::find_scenario(scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario '%s'; valid presets:\n\n",
                 scenario_name.c_str());
    list_presets(stderr);
    return 1;
  }
  if (options.threads == 0) {
    options.threads = std::max(1u, std::thread::hardware_concurrency());
  }

  // Observability wiring: timers are collected exactly when a metrics
  // report was requested; the trace recorder lives here (CLI scope) and
  // the runner only buffers into it. In shard mode the recorder's pid is
  // the shard index, so merged timelines from K processes stay distinct.
  options.metrics_timers = !metrics_json_path.empty();
  obs::TraceRecorder trace_recorder(static_cast<std::uint32_t>(shard_index));
  if (!trace_path.empty()) options.trace = &trace_recorder;

  // ---- dispatch mode: all K shards through the recovering dispatcher ----
  if (dispatch_mode) {
    try {
      campaign::FaultPlan faults;
      if (!fault_plan_spec.empty()) {
        faults = campaign::FaultPlan::parse(fault_plan_spec);
      }
      campaign::DispatchOptions dopt;
      dopt.shard_count = shard_count;
      dopt.max_rounds = max_rounds;
      dopt.faults = faults;
      campaign::DispatchReport drep;
      campaign::CampaignResult result;
      if (executor_name == "thread") {
        campaign::ThreadExecutor ex(*scenario, options, faults);
        result =
            campaign::dispatch_campaign(*scenario, options, dopt, ex, &drep);
      } else {
        campaign::SubprocessExecutor ex(argv[0], workdir, scenario->name,
                                        options, faults);
        result =
            campaign::dispatch_campaign(*scenario, options, dopt, ex, &drep);
      }
      campaign::print_summary(stdout, result);
      std::printf("\n  dispatched %zu shard(s) (%s executor): %zu recovery "
                  "round(s), %zu chunk(s) re-dealt, %zu duplicate(s) "
                  "suppressed, %zu dead, %zu straggler(s), %zu repair "
                  "task(s)\n",
                  shard_count, executor_name.c_str(), drep.rounds,
                  drep.chunks_redealt, drep.chunks_duplicate,
                  drep.shards_dead, drep.shards_straggler,
                  drep.tasks_retried);
      if (!csv_path.empty() &&
          !campaign::write_file(csv_path, campaign::to_csv(result))) {
        return 1;
      }
      if (!json_path.empty() &&
          !campaign::write_file(json_path, campaign::to_json(result))) {
        return 1;
      }
      if (!metrics_json_path.empty()) {
        const std::string doc = campaign::metrics_report_json(
            result.scenario.name, result.options.seed, drep.metrics.shards,
            drep.metrics.threads,
            static_cast<double>(drep.metrics.wall_ns) / 1e9,
            drep.metrics.report);
        if (!campaign::write_file(metrics_json_path, doc)) return 1;
      }
    } catch (const campaign::DispatchError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  // ---- shard mode: run this shard's chunks, write the stream ----
  if (shard_count > 0) {
    options.progress = true;
    campaign::ShardPlan plan;
    try {
      if (chunks_spec.empty()) {
        plan = campaign::plan_shard(*scenario, options, shard_count,
                                    shard_index);
      } else {
        // Repair run: the explicit chunk ids a dispatcher re-dealt here.
        std::vector<std::size_t> ids;
        std::size_t start = 0;
        while (start <= chunks_spec.size()) {
          std::size_t end = chunks_spec.find(',', start);
          if (end == std::string::npos) end = chunks_spec.size();
          const std::string token = chunks_spec.substr(start, end - start);
          if (!token.empty()) {
            ids.push_back(parse_u64(token.c_str(), "--chunks"));
          }
          start = end + 1;
        }
        plan = campaign::make_repair_plan(*scenario, options, shard_count,
                                          shard_index, ids);
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    watchdog.set_total_chunks(plan.chunks.size());
    const auto exec = campaign::run_campaign_chunks(*scenario, options,
                                                    std::move(plan));
    std::string stream_text =
        campaign::serialize_chunk_stream(*scenario, options, exec);
    bool fault_killed = false;
    if (!fault_plan_spec.empty()) {
      try {
        const auto faults = campaign::FaultPlan::parse(fault_plan_spec);
        stream_text = campaign::apply_stream_faults(
            faults, shard_index, std::move(stream_text), &fault_killed);
      } catch (const campaign::DispatchError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    }
    if (!campaign::write_file(emit_chunks_path, stream_text)) {
      return 1;
    }
    if (fault_killed) {
      // The injected crash: the truncated stream is on disk, the process
      // dies with a distinctive status (EX_SOFTWARE) for the dispatcher
      // to observe.
      std::fprintf(stderr,
                   "fault-plan: shard %zu killed (stream truncated)\n",
                   shard_index);
      return 70;
    }
    if (!metrics_json_path.empty() &&
        !campaign::write_file(
            metrics_json_path,
            campaign::metrics_report_json(scenario->name, options.seed, 1,
                                          exec.threads, exec.wall_seconds,
                                          exec.metrics))) {
      return 1;
    }
    if (!trace_path.empty() &&
        !campaign::write_file(trace_path, trace_recorder.to_json())) {
      return 1;
    }
    const std::size_t stolen =
        exec.metrics.counter(obs::Counter::kChunksStolen);
    std::size_t shard_trials = 0;
    for (const auto& c : exec.plan.chunks) {
      shard_trials += c.trial_end - c.trial_begin;
    }
    std::printf("shard %zu/%zu of %s: %zu/%zu chunks (%zu trials), "
                "%u thread(s), %.2fs (%.1f trials/s), %zu chunk(s) stolen "
                "-> %s\n",
                shard_index, shard_count, scenario->name.c_str(),
                exec.plan.chunks.size(), exec.plan.total_chunks,
                shard_trials, exec.threads, exec.wall_seconds,
                exec.wall_seconds > 0.0
                    ? static_cast<double>(shard_trials) / exec.wall_seconds
                    : 0.0,
                stolen, emit_chunks_path.c_str());
    return 0;
  }

  watchdog.set_total_chunks(
      campaign::plan_shard(*scenario, options, 1, 0).chunks.size());
  const auto result = campaign::run_campaign(*scenario, options);
  campaign::print_summary(stdout, result);

  {
    auto report = result;
    if (canonical) campaign::canonicalize(report);
    if (!csv_path.empty() &&
        !campaign::write_file(csv_path, campaign::to_csv(report))) {
      return 1;
    }
    if (!json_path.empty() &&
        !campaign::write_file(json_path, campaign::to_json(report))) {
      return 1;
    }
  }

  if (!metrics_json_path.empty() &&
      !campaign::write_file(
          metrics_json_path,
          campaign::metrics_report_json(scenario->name, options.seed, 1,
                                        result.options.threads,
                                        result.wall_seconds,
                                        result.metrics))) {
    return 1;
  }
  if (!trace_path.empty() &&
      !campaign::write_file(trace_path, trace_recorder.to_json())) {
    return 1;
  }
  return 0;
}
