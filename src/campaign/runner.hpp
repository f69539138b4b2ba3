/// @file
/// Parallel Monte Carlo campaign runner.
///
/// Expands a Scenario's sweep axis into points, fans (point, trial) work
/// units over a std::thread pool, and aggregates per-point statistics.
/// Determinism: every trial's seed is derived from (campaign seed,
/// scenario name, point index, trial index) through the named-substream
/// Rng, and chunk accumulators are merged in fixed chunk order — so
/// 1-thread and N-thread runs produce bit-identical aggregates.
///
/// Each worker owns a shield::TrialContext: deployments and experiment
/// nodes are reset-and-reseeded between trials instead of reconstructed
/// (reused trials are bit-identical to fresh ones; see trial_context.hpp).
/// CampaignOptions::reuse_deployments — the CLI's `--no-reuse` — turns
/// the pool off.
///
/// Chunks are scheduled through per-worker deques with work stealing: an
/// idle worker takes chunks from the tail of a busy worker's deque. Only
/// chunk boundaries — never the steal order — define the RNG streams and
/// the merge order, so the stolen schedule preserves bit-identity.
/// run_campaign_shard() runs one shard of a multi-process campaign on the
/// same pool (see shard.hpp / chunk_stream.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "campaign/stats.hpp"
#include "obs/metrics.hpp"

namespace hs::shield {
class TrialContext;
}  // namespace hs::shield

namespace hs::snapshot {
class SnapshotCache;
}  // namespace hs::snapshot

namespace hs::campaign {

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// Trials per sweep point; 0 uses the scenario's default_trials.
  std::size_t trials_per_point = 0;
  /// Worker threads; 0 uses std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Trials per work chunk. Chunk boundaries — not thread count — define
  /// the merge order, so this must stay fixed across runs being compared.
  /// One trial per chunk maximizes parallelism (a trial simulates a full
  /// deployment, so accumulator merge overhead is negligible).
  std::size_t chunk_size = 1;
  /// Reuse each worker's deployment across trials (reset + reseed) rather
  /// than reconstructing it per trial. Aggregates are bit-identical
  /// either way; false is the `--no-reuse` escape hatch.
  bool reuse_deployments = true;
  /// Print periodic `shard i/K: chunks c/C` progress lines to stderr
  /// (enabled by the CLI's shard mode).
  bool progress = false;
  /// Collect nanosecond phase timers (obs::Phase) alongside the
  /// always-on counters. Enabled by the CLI's `--metrics-json`; timers
  /// read clocks only, never RNG state, so aggregates are bit-identical
  /// with timers on or off.
  bool metrics_timers = false;
  /// Optional Chrome-trace span recorder (the CLI's `--trace`); not
  /// owned. Workers buffer spans thread-locally and flush them at chunk
  /// boundaries. Null disables tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Optional liveness counter, incremented once per completed chunk
  /// (relaxed; not owned). The CLI's `--timeout-seconds` watchdog reads
  /// it to report partial progress when it aborts a hung campaign, and
  /// server-side request deadlines build on the same hook. Never read by
  /// the engine itself — aggregates are unaffected.
  std::atomic<std::size_t>* chunks_completed = nullptr;
};

/// Aggregates for one sweep point.
struct PointResult {
  std::size_t point_index = 0;
  double axis_value = 0.0;
  std::array<StreamingStats, kMetricCount> metrics;

  const StreamingStats& stats(Metric m) const {
    return metrics[static_cast<std::size_t>(m)];
  }
};

struct CampaignResult {
  Scenario scenario;
  CampaignOptions options;
  std::vector<PointResult> points;
  std::size_t total_trials = 0;
  double wall_seconds = 0.0;
  /// Merged observability report: the pool counters (deployments built
  /// and reused, chunks stolen, ...) plus, when
  /// CampaignOptions::metrics_timers was set, per-phase wall time.
  /// Runtime-only — reports/CSV/JSON never include it, so canonical
  /// outputs stay byte-identical with metrics on or off.
  obs::Report metrics;

  double trials_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_trials) / wall_seconds
               : 0.0;
  }
};

/// One chunk's metric accumulators.
using ChunkMetrics = std::array<StreamingStats, kMetricCount>;

/// Deterministic per-trial seed derived via the Rng substream mechanism.
std::uint64_t trial_seed(std::uint64_t campaign_seed,
                         std::string_view scenario_name,
                         std::size_t point_index, std::size_t trial_index);

/// The warm-up seed every trial, worker and shard of a campaign shares
/// (two-phase seeding; see DeploymentOptions::warmup_seed). A pure
/// function of (campaign seed, scenario name) so shard processes agree
/// on it without communicating.
std::uint64_t campaign_warmup_seed(std::uint64_t campaign_seed,
                                   std::string_view scenario_name);

/// One metric sample produced by a trial.
struct TrialSample {
  Metric metric;
  double value;
};

/// Executes one trial of the scenario at the given sweep point (exposed
/// for tests; run_campaign is the normal entry point). With a
/// TrialContext the deployment and experiment nodes come from the pool —
/// bit-identical results, cheaper setup; with nullptr everything is
/// built fresh.
std::vector<TrialSample> run_trial(const Scenario& scenario,
                                   std::size_t point_index,
                                   double axis_value, std::uint64_t seed,
                                   shield::TrialContext* context = nullptr);

/// Executes one chunk and returns its metric accumulators — the
/// chunk-granular submission point for external schedulers (the service
/// daemon feeds interleaved chunks from many concurrent campaigns
/// through here). The trial seeds and the accumulation order depend
/// only on (campaign seed, scenario, chunk), never on which thread,
/// worker, pool or process runs the chunk, so any interleaving
/// reproduces the serial aggregates bit-for-bit once chunks are folded
/// in ascending chunk id.
///
/// `context` is the caller's resident TrialContext (its warm seed is
/// (re)applied from `warmup_seed` on every call, so one context may
/// serve chunks of different campaigns back to back). A null `context`
/// builds a fresh context per trial — the `--no-reuse` A/B baseline.
/// Either way a cold start is deployment build + warm-up. Pool events
/// are counted through the obs counters of the calling thread.
/// `warmup_seed` must come from campaign_warmup_seed(). `cache` is
/// unused; it remains only for the repository benchmark (hsbench/),
/// which still passes one.
ChunkMetrics run_chunk(
    const Scenario& scenario, std::uint64_t campaign_seed,
    const ChunkRef& chunk, shield::TrialContext* context,
    std::uint64_t warmup_seed, snapshot::SnapshotCache* cache = nullptr);

/// One shard's execution: per-chunk accumulators (parallel to
/// plan.chunks) plus the observability report. Kept un-merged so the
/// chunk stream can serialize every chunk individually.
struct ShardExecution {
  ShardPlan plan;
  std::vector<ChunkMetrics> chunk_metrics;
  unsigned threads = 1;
  double wall_seconds = 0.0;
  /// Merged-across-workers observability report for this shard; the
  /// chunk-stream trailer serializes it so `--merge` can aggregate all
  /// K shards' metrics (see chunk_stream.hpp).
  obs::Report metrics;
};

/// Runs an explicit chunk plan on the work-stealing pool — the engine
/// underneath both the round-robin shard path and the dispatcher's
/// repair tasks (make_repair_plan). Chunk ids, not the plan's provenance,
/// key every trial seed and accumulator, so a chunk executed by a repair
/// task is bit-identical to the same chunk executed by its original
/// shard.
ShardExecution run_campaign_chunks(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   ShardPlan plan);

/// Runs shard `shard_index` of `shard_count` on the work-stealing pool.
/// (shard_count, shard_index) = (1, 0) executes the whole campaign —
/// run_campaign is exactly that plus the fixed-order chunk merge.
ShardExecution run_campaign_shard(const Scenario& scenario,
                                  const CampaignOptions& options,
                                  std::size_t shard_count,
                                  std::size_t shard_index);

/// The fold that defines a campaign's aggregates, and the only one:
/// every chunk's accumulators merged into its sweep point in ascending
/// chunk id. `plan` is the whole campaign (a 1-shard plan) and
/// `metrics_of(c)` returns plan.chunks[c]'s accumulators, read in place.
/// Because the order is fixed by chunk id, serial, threaded, sharded,
/// recovered and served runs all fold to the same bits. The result
/// carries `options` as given; its runtime fields stay zero.
CampaignResult fold_chunks(
    const Scenario& scenario, const CampaignOptions& options,
    const ShardPlan& plan,
    const std::function<const ChunkMetrics&(std::size_t)>& metrics_of);

/// Runs the full campaign on the configured worker pool.
CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options);

}  // namespace hs::campaign
