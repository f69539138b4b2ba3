#include "campaign/dispatch.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "snapshot/state_io.hpp"

namespace hs::campaign {

namespace {

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKill: return "kill";
    case FaultKind::kTruncateBytes: return "trunc";
    case FaultKind::kTruncateLines: return "truncl";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
  }
  return "?";
}

bool fault_kind_from_name(std::string_view name, FaultKind* out) {
  for (FaultKind k : {FaultKind::kKill, FaultKind::kTruncateBytes,
                      FaultKind::kTruncateLines, FaultKind::kDelay,
                      FaultKind::kCorrupt}) {
    if (fault_kind_name(k) == name) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::size_t parse_fault_u64(std::string_view text, std::string_view token) {
  const std::string digits(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (digits.empty() || end != digits.c_str() + digits.size() ||
      errno == ERANGE) {
    throw DispatchError("fault-plan: bad number '" + digits + "' in '" +
                        std::string(token) + "'");
  }
  return static_cast<std::size_t>(v);
}

/// Byte offsets of the starts of complete (newline-terminated) lines,
/// plus one-past-the-last such line.
std::vector<std::size_t> line_starts(std::string_view text) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of(",;", start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view token = spec.substr(start, end - start);
    start = end + 1;
    while (!token.empty() && (token.front() == ' ' || token.front() == '\t'))
      token.remove_prefix(1);
    while (!token.empty() && (token.back() == ' ' || token.back() == '\t'))
      token.remove_suffix(1);
    if (token.empty()) continue;
    const std::size_t colon = token.find(':');
    const std::size_t at = token.find('@');
    if (colon == std::string_view::npos || at == std::string_view::npos ||
        at < colon) {
      throw DispatchError("fault-plan: token '" + std::string(token) +
                          "' is not kind:shard@arg");
    }
    Fault f;
    if (!fault_kind_from_name(token.substr(0, colon), &f.kind)) {
      throw DispatchError("fault-plan: unknown fault kind '" +
                          std::string(token.substr(0, colon)) +
                          "' (kill, trunc, truncl, delay, corrupt)");
    }
    f.shard = parse_fault_u64(token.substr(colon + 1, at - colon - 1), token);
    f.arg = parse_fault_u64(token.substr(at + 1), token);
    plan.faults.push_back(f);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const Fault& f : faults) {
    if (!out.empty()) out += ',';
    out += fault_kind_name(f.kind);
    out += ':';
    out += std::to_string(f.shard);
    out += '@';
    out += std::to_string(f.arg);
  }
  return out;
}

FaultPlan FaultPlan::for_shard(std::size_t shard) const {
  FaultPlan out;
  for (const Fault& f : faults) {
    if (f.shard == shard) out.faults.push_back(f);
  }
  return out;
}

std::size_t FaultPlan::delay_waves(std::size_t shard) const {
  std::size_t waves = 0;
  for (const Fault& f : faults) {
    if (f.kind == FaultKind::kDelay && f.shard == shard) {
      waves = std::max(waves, f.arg);
    }
  }
  return waves;
}

std::string apply_stream_faults(const FaultPlan& plan, std::size_t shard,
                                std::string text, bool* killed) {
  if (killed != nullptr) *killed = false;
  for (const Fault& f : plan.faults) {
    if (f.shard != shard) continue;
    switch (f.kind) {
      case FaultKind::kKill: {
        // Death after writing `arg` chunk records: header + arg complete
        // lines survive, the trailer never does.
        const auto starts = line_starts(text);
        const std::size_t complete_lines = starts.size() - 1;
        const std::size_t keep =
            std::min(1 + f.arg,
                     complete_lines > 0 ? complete_lines - 1 : std::size_t{0});
        text.resize(starts[keep]);
        if (killed != nullptr) *killed = true;
        break;
      }
      case FaultKind::kTruncateBytes:
        text.resize(std::min(f.arg, text.size()));
        break;
      case FaultKind::kTruncateLines: {
        const auto starts = line_starts(text);
        text.resize(starts[std::min(f.arg, starts.size() - 1)]);
        break;
      }
      case FaultKind::kCorrupt: {
        // Flip one bit in the middle of line `arg` (1-based). The line
        // usually still parses field-by-field — the per-line CRC is what
        // must catch it.
        const auto starts = line_starts(text);
        if (f.arg == 0 || f.arg > starts.size() - 1) break;
        const std::size_t begin = starts[f.arg - 1];
        const std::size_t len = starts[f.arg] - begin - 1;  // sans newline
        if (len == 0) break;
        text[begin + len / 2] ^= 0x01;
        break;
      }
      case FaultKind::kDelay:
        break;  // a delivery fault; executors consult delay_waves()
    }
  }
  return text;
}

void DelayQueue::push(TaskOutcome outcome, std::size_t waves) {
  entries_.push_back(Entry{std::move(outcome), waves});
}

std::vector<TaskOutcome> DelayQueue::advance() {
  std::vector<TaskOutcome> due;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (--it->waves_left == 0) {
      due.push_back(std::move(it->outcome));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

std::vector<TaskOutcome> DelayQueue::drain() {
  std::vector<TaskOutcome> due;
  for (auto& e : entries_) due.push_back(std::move(e.outcome));
  entries_.clear();
  return due;
}

// ---------------------------------------------------------------------------
// ThreadExecutor

ThreadExecutor::ThreadExecutor(const Scenario& scenario,
                               const CampaignOptions& options,
                               FaultPlan faults)
    : scenario_(scenario), options_(options), faults_(std::move(faults)) {
  // Task results are consumed as serialized text; progress lines and
  // trace buffers belong to real shard processes, not dispatch tasks.
  options_.progress = false;
  options_.trace = nullptr;
}

std::vector<TaskOutcome> ThreadExecutor::run_wave(
    const std::vector<ShardTask>& tasks) {
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([this, &tasks, &outcomes, i] {
      const ShardTask& task = tasks[i];
      const ShardExecution exec =
          run_campaign_chunks(scenario_, options_, task.plan);
      std::string text = serialize_chunk_stream(scenario_, options_, exec);
      bool task_killed = false;
      if (task.generation == 0) {
        text = apply_stream_faults(faults_, task.slot, std::move(text),
                                   &task_killed);
      }
      TaskOutcome& o = outcomes[i];
      o.slot = task.slot;
      o.generation = task.generation;
      o.exited_ok = !task_killed;
      o.stream_text = std::move(text);
      o.source = "thread slot " + std::to_string(task.slot) + " gen " +
                 std::to_string(task.generation);
    });
  }
  for (auto& t : threads) t.join();

  // Deliver in task order (determinism is first-wins order-sensitive for
  // the counters, though never for the aggregates); delay faults divert
  // generation-0 outcomes into the queue.
  std::vector<TaskOutcome> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t waves = tasks[i].generation == 0
                                  ? faults_.delay_waves(tasks[i].slot)
                                  : 0;
    if (waves > 0) {
      delayed_.push(std::move(outcomes[i]), waves);
    } else {
      ready.push_back(std::move(outcomes[i]));
    }
  }
  return ready;
}

std::vector<TaskOutcome> ThreadExecutor::collect_delayed() {
  return delayed_.advance();
}

std::vector<TaskOutcome> ThreadExecutor::drain() { return delayed_.drain(); }

// ---------------------------------------------------------------------------
// SubprocessExecutor

namespace {

/// POSIX-shell single quoting (popen runs through /bin/sh).
std::string shell_quote(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

}  // namespace

SubprocessExecutor::SubprocessExecutor(std::string runner_path,
                                       std::string workdir,
                                       std::string scenario_name,
                                       CampaignOptions options,
                                       FaultPlan faults)
    : runner_path_(std::move(runner_path)),
      workdir_(std::move(workdir)),
      scenario_name_(std::move(scenario_name)),
      options_(options),
      faults_(std::move(faults)) {}

std::vector<TaskOutcome> SubprocessExecutor::run_wave(
    const std::vector<ShardTask>& tasks) {
  struct Child {
    std::FILE* pipe = nullptr;
    std::string path;
  };
  std::vector<Child> children(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ShardTask& task = tasks[i];
    Child& child = children[i];
    const std::string stem = workdir_ + "/shard-" + std::to_string(task.slot) +
                             "-gen" + std::to_string(task.generation);
    child.path = stem + ".jsonl";

    std::string cmd = shell_quote(runner_path_);
    cmd += " --scenario=" + shell_quote(scenario_name_);
    cmd += " --seed=" + std::to_string(options_.seed);
    if (options_.trials_per_point > 0) {
      cmd += " --trials=" + std::to_string(options_.trials_per_point);
    }
    cmd += " --threads=" + std::to_string(options_.threads);
    cmd += " --chunk=" + std::to_string(options_.chunk_size);
    if (!options_.reuse_deployments) cmd += " --no-reuse";
    cmd += " --shards=" + std::to_string(task.plan.shard_count);
    cmd += " --shard=" + std::to_string(task.slot);
    cmd += " --emit-chunks=" + shell_quote(child.path);
    if (options_.metrics_timers) {
      // The child turns its phase timers on only when asked for a
      // metrics document; its stream trailer then carries the timings.
      cmd += " --metrics-json=" + shell_quote(stem + ".metrics.json");
    }
    if (task.generation > 0) {
      // Repair wave: the explicit chunk set, never refaulted.
      std::string ids;
      for (const ChunkRef& ref : task.plan.chunks) {
        if (!ids.empty()) ids += ',';
        ids += std::to_string(ref.chunk_index);
      }
      cmd += " --chunks=" + shell_quote(ids);
    } else {
      const FaultPlan shard_faults = faults_.for_shard(task.slot);
      if (!shard_faults.empty()) {
        cmd += " --fault-plan=" + shell_quote(shard_faults.to_string());
      }
    }
    cmd += " >/dev/null 2>&1";
    child.pipe = ::popen(cmd.c_str(), "r");
    if (child.pipe == nullptr) {
      throw DispatchError("dispatch: popen failed for slot " +
                          std::to_string(task.slot));
    }
  }

  std::vector<TaskOutcome> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int status = ::pclose(children[i].pipe);
    TaskOutcome o;
    o.slot = tasks[i].slot;
    o.generation = tasks[i].generation;
    o.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    o.source = children[i].path;
    // A dead child's stream is whatever it wrote before dying — possibly
    // nothing; an unreadable file is data loss, not an error.
    std::string text;
    if (snapshot::read_whole_file(children[i].path, text) ==
        snapshot::FileReadStatus::kOk) {
      o.stream_text = std::move(text);
    }
    const std::size_t waves = tasks[i].generation == 0
                                  ? faults_.delay_waves(tasks[i].slot)
                                  : 0;
    if (waves > 0) {
      delayed_.push(std::move(o), waves);
    } else {
      ready.push_back(std::move(o));
    }
  }
  return ready;
}

std::vector<TaskOutcome> SubprocessExecutor::collect_delayed() {
  return delayed_.advance();
}

std::vector<TaskOutcome> SubprocessExecutor::drain() {
  return delayed_.drain();
}

// ---------------------------------------------------------------------------
// dispatch_campaign

namespace {

/// Surfaces the dispatcher's accounting through the standard obs
/// counters so --metrics-json (and CI's chunks_redealt gate) see it.
void add_dispatch_counters(DispatchReport& rep) {
  auto& counters = rep.metrics.report.counters;
  counters[static_cast<std::size_t>(obs::Counter::kChunksRedealt)] +=
      rep.chunks_redealt;
  counters[static_cast<std::size_t>(obs::Counter::kChunksDuplicate)] +=
      rep.chunks_duplicate;
  counters[static_cast<std::size_t>(obs::Counter::kShardsDead)] +=
      rep.shards_dead;
  counters[static_cast<std::size_t>(obs::Counter::kShardsStraggler)] +=
      rep.shards_straggler;
  counters[static_cast<std::size_t>(obs::Counter::kTasksRetried)] +=
      rep.tasks_retried;
}

/// The dispatcher's accounting that the cover keeps, then the counters.
void finish_report(const ChunkCover& cover, DispatchReport& rep) {
  rep.chunks_duplicate = cover.duplicates();
  rep.shards_dead = cover.shards_dead();
  rep.metrics = cover.metrics();
  rep.streams_complete = rep.metrics.shards;
  add_dispatch_counters(rep);
}

}  // namespace

CampaignResult dispatch_campaign(const Scenario& scenario,
                                 const CampaignOptions& options,
                                 const DispatchOptions& dispatch,
                                 Executor& executor,
                                 DispatchReport* report) {
  if (dispatch.shard_count == 0) {
    throw DispatchError("dispatch: shard_count must be >= 1");
  }
  const std::size_t K = dispatch.shard_count;
  ChunkCover cover(scenario, CoverMode::kRecover);
  cover.pin(options, K);
  DispatchReport rep;
  const auto process_outcome = [&](const TaskOutcome& o, bool from_delay) {
    const std::size_t duplicates =
        cover.add(salvage_chunk_stream(o.stream_text, o.source));
    if (from_delay && duplicates > 0) ++rep.shards_straggler;
  };

  // Initial deal: the same round-robin plans a faultless sharded run
  // uses, one task per slot.
  std::vector<ShardTask> tasks;
  tasks.reserve(K);
  for (std::size_t i = 0; i < K; ++i) {
    ShardTask task;
    task.slot = i;
    task.generation = 0;
    task.plan = plan_shard(scenario, options, K, i);
    tasks.push_back(std::move(task));
  }
  std::vector<TaskOutcome> outcomes = executor.run_wave(tasks);

  for (std::size_t round = 0;; ++round) {
    for (const TaskOutcome& o : outcomes) process_outcome(o, false);
    for (const TaskOutcome& o : executor.collect_delayed()) {
      process_outcome(o, true);
    }

    const std::vector<std::size_t> missing = cover.missing();
    if (missing.empty()) break;
    if (round >= dispatch.max_rounds) {
      throw DispatchError(
          "dispatch: " + std::to_string(missing.size()) +
          " chunk(s) still missing after " + std::to_string(round) +
          " recovery round(s) (first missing id " +
          std::to_string(missing.front()) + ")");
    }

    // Re-deal ONLY the missing ids, round-robin over the worker slots.
    rep.rounds = round + 1;
    rep.chunks_redealt += missing.size();
    const std::size_t repair_slots = std::min(K, missing.size());
    std::vector<ShardTask> repairs;
    for (std::size_t j = 0; j < repair_slots; ++j) {
      std::vector<std::size_t> ids;
      for (std::size_t m = j; m < missing.size(); m += repair_slots) {
        ids.push_back(missing[m]);
      }
      ShardTask task;
      task.slot = j;
      task.generation = round + 1;
      task.plan = make_repair_plan(scenario, options, K, j, ids);
      repairs.push_back(std::move(task));
    }
    rep.tasks_retried += repairs.size();
    outcomes = executor.run_wave(repairs);
  }

  // Account stragglers that were still in flight when recovery finished.
  for (const TaskOutcome& o : executor.drain()) process_outcome(o, true);

  CampaignResult result = cover.fold();
  finish_report(cover, rep);
  if (report != nullptr) *report = std::move(rep);
  return result;
}

CampaignResult recover_campaign(const Scenario& scenario,
                                const CampaignOptions& options,
                                std::vector<ChunkStream> streams,
                                DispatchReport* report) {
  ChunkCover cover(scenario, CoverMode::kRecover);
  for (ChunkStream& s : streams) cover.add(std::move(s));
  const ChunkStreamHeader* id = cover.identity();
  if (id == nullptr) {
    throw DispatchError(
        "recover: no stream has a salvageable header — the campaign "
        "identity (scenario/seed/trials/chunk size) is unrecoverable");
  }

  DispatchReport rep;
  const std::vector<std::size_t> missing = cover.missing();
  if (!missing.empty()) {
    // One in-process repair execution covers every missing chunk —
    // chunk identity, not worker identity, keys the trial seeds, so
    // this is bit-identical to what the dead shards would have run.
    // Campaign identity comes from the headers; execution knobs
    // (threads, reuse) from the caller.
    CampaignOptions ropt = options;
    ropt.seed = id->seed;
    ropt.trials_per_point = id->trials_per_point;
    ropt.chunk_size = id->chunk_size;
    rep.rounds = 1;
    rep.chunks_redealt = missing.size();
    rep.tasks_retried = 1;
    const ShardExecution exec = run_campaign_chunks(
        scenario, ropt,
        make_repair_plan(scenario, ropt, id->shard_count, 0, missing));
    cover.add(salvage_chunk_stream(
        serialize_chunk_stream(scenario, ropt, exec), "recover repair"));
  }

  CampaignResult result = cover.fold();
  finish_report(cover, rep);
  if (report != nullptr) *report = std::move(rep);
  return result;
}

}  // namespace hs::campaign
