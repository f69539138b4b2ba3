// Campaign workloads: campaigns of one preset through
// campaign::run_campaign, timed from outside the engine.
//
// A run draws --campaigns distinct campaign seeds from --seed and executes
// them in passes, in the same order, until the window ends: every repeat
// must reproduce its campaign's report byte for byte, and the serial check
// needs one run per distinct campaign. Each campaign builds its own
// deployments, so a repeat is as cold as the first execution. One cold
// start — a fresh TrialContext and snapshot cache running their first
// trial — is timed before each pass. A host-speed reference burst
// (reference.cpp, on as many threads as the campaign's workers) is timed
// before every execution and cold start, and once after the window;
// run.py scales each execution by the bursts on either side of it.
//
// Untraced runs measure one window; traced runs split it into alternating
// untraced/traced blocks so the tracing overhead is measured on
// interleaved work. After the window, --serial-check runs every distinct
// campaign on one thread and byte-compares each execution's report with
// it.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "dsp/rng.hpp"
#include "obs/metrics.hpp"
#include "shield/trial_context.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hsbench {
namespace {

using hs::campaign::CampaignOptions;
using hs::campaign::CampaignResult;

struct Block {
  bool traced;
  double seconds;
};

struct Execution {
  std::size_t campaign;  ///< index into the run's distinct campaigns
  std::size_t trials;
  double latency_ms;
  bool traced;
  double reference_s;     ///< host-speed reference burst just before it
  bool repeat_match;      ///< report byte-identical to the first execution's
  int serial_match = -1;  ///< -1 unchecked, 0 mismatch, 1 byte-identical
};

std::string canonical_csv_json(CampaignResult r) {
  hs::campaign::canonicalize(r);
  return hs::campaign::to_csv(r) + "\n--\n" + hs::campaign::to_json(r);
}

/// Durations (ms) of the engine's own "chunk" spans in the recorder.
std::vector<double> chunk_span_ms(const hs::obs::TraceRecorder& rec) {
  std::map<std::uint32_t, std::vector<std::uint64_t>> open;
  std::vector<double> out;
  for (const auto& e : rec.events()) {
    if (std::strcmp(e.category, "chunk") != 0) continue;
    if (e.phase == 'B') {
      open[e.tid].push_back(e.ts_ns);
    } else if (e.phase == 'E' && !open[e.tid].empty()) {
      out.push_back(static_cast<double>(e.ts_ns - open[e.tid].back()) / 1e6);
      open[e.tid].pop_back();
    }
  }
  return out;
}

}  // namespace

int run_campaign_load(const Args& args) {
  const std::string preset = args.str("preset");
  const hs::campaign::Scenario* scenario = hs::campaign::find_scenario(preset);
  if (scenario == nullptr) {
    std::fprintf(stderr, "hsbench: unknown preset %s\n", preset.c_str());
    return 2;
  }
  const std::uint64_t seed = args.u64("seed", 1);
  const double seconds = args.f64("seconds", 10.0);
  const bool traced = args.flag("traced");
  const std::size_t count =
      std::max<std::uint64_t>(1, args.u64("campaigns", 12));

  std::vector<CampaignOptions> campaigns(count);
  for (std::size_t k = 0; k < count; ++k) {
    campaigns[k].seed =
        hs::dsp::derive_seed(seed, "campaign-" + std::to_string(k));
    campaigns[k].threads = static_cast<unsigned>(args.u64("threads", 1));
    campaigns[k].trials_per_point = args.u64("trials", 1);
    campaigns[k].chunk_size = 1;
  }

  hs::obs::TraceRecorder recorder;
  hs::obs::MetricsRegistry bench_registry(false);
  hs::obs::WorkerScope scope(&bench_registry, traced ? &recorder : nullptr,
                             "bench");

  // Set-up: a cold context's first chunk (one trial) builds the
  // deployment, estimates the jamming profile, simulates the warm-up and
  // publishes the warm snapshot.
  std::vector<double> setup_s, setup_reference_s;
  const auto cold_start = [&] {
    setup_reference_s.push_back(reference_burst_s(campaigns[0].threads));
    CampaignOptions o = campaigns[0];
    o.seed =
        hs::dsp::derive_seed(seed, "setup-" + std::to_string(setup_s.size()));
    const hs::campaign::ChunkRef first =
        hs::campaign::plan_shard(*scenario, o, 1, 0).chunks.front();
    hs::shield::TrialContext context;
    hs::snapshot::SnapshotCache cache;
    const double t0 = now_s();
    {
      hs::obs::TraceSpan span("bench", "shield.cold_first_trial");
      hs::campaign::run_chunk(
          *scenario, o.seed, first, &context,
          hs::campaign::campaign_warmup_seed(o.seed, scenario->name), &cache);
    }
    setup_s.push_back(now_s() - t0);
  };

  std::vector<Block> blocks;
  if (traced) {
    for (int i = 0; i < 4; ++i) blocks.push_back({i % 2 == 1, seconds / 4});
  } else {
    blocks.push_back({false, seconds});
  }

  std::vector<Execution> done;
  // Canonical CSV + JSON report of each campaign's first execution.
  std::vector<std::string> reports(count);
  hs::obs::Report traced_report;
  hs::obs::Report all_report;
  std::size_t index = 0;
  for (const Block& block : blocks) {
    const double b0 = now_s();
    while (now_s() - b0 < block.seconds) {
      const std::size_t k = index++ % count;
      if (k == 0 && !block.traced) cold_start();
      CampaignOptions o = campaigns[k];
      o.metrics_timers = block.traced;
      o.trace = block.traced ? &recorder : nullptr;
      const double reference_s = reference_burst_s(o.threads);
      const double c0 = now_s();
      std::optional<CampaignResult> r;
      {
        std::optional<hs::obs::TraceSpan> span;
        if (block.traced) {
          span.emplace("bench", "campaign.run_campaign",
                       "{\"seed\":" + std::to_string(o.seed) + "}");
        }
        r.emplace(hs::campaign::run_campaign(*scenario, o));
      }
      const double latency_ms = (now_s() - c0) * 1e3;
      if (block.traced) traced_report.merge(r->metrics);
      all_report.merge(r->metrics);
      scope.flush();
      std::string report = canonical_csv_json(*r);
      if (reports[k].empty()) reports[k] = report;
      done.push_back({k, r->total_trials, latency_ms, block.traced,
                      reference_s, report == reports[k]});
    }
  }
  const double final_reference_s = reference_burst_s(campaigns[0].threads);
  const std::uint64_t rss_kb = peak_rss_kb();
  while (setup_s.size() < kMinColdStarts) cold_start();

  if (args.flag("serial-check")) {
    // Each distinct campaign once on one thread, after the window, one
    // check per hardware thread.
    std::vector<std::string> serial(count);
    std::atomic<std::size_t> next{0};
    const auto check = [&] {
      for (std::size_t k = next++; k < count; k = next++) {
        CampaignOptions o = campaigns[k];
        o.threads = 1;
        serial[k] =
            canonical_csv_json(hs::campaign::run_campaign(*scenario, o));
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
         ++t) {
      pool.emplace_back(check);
    }
    for (auto& t : pool) t.join();
    for (Execution& e : done) {
      e.serial_match = reports[e.campaign] == serial[e.campaign];
    }
  }

  std::vector<LeafCost> leaves;
  if (traced) leaves = measure_leaves(seed);
  scope.flush();

  Json out;
  out.open_obj();
  out.key("setup_s").open_arr();
  for (const double s : setup_s) out.num(s);
  out.close_arr();
  out.key("setup_reference_s").open_arr();
  for (const double s : setup_reference_s) out.num(s);
  out.close_arr();
  out.key("final_reference_s").num(final_reference_s);
  out.key("peak_rss_kb").num(rss_kb);
  out.key("campaigns").open_arr();
  for (const Execution& e : done) {
    out.open_obj()
        .key("seed").num(campaigns[e.campaign].seed)
        .key("trials").num(static_cast<std::uint64_t>(e.trials))
        .key("latency_ms").num(e.latency_ms)
        .key("traced").boolean(e.traced)
        .key("reference_s").num(e.reference_s)
        .key("repeat_match").boolean(e.repeat_match);
    out.key("serial_match");
    if (e.serial_match < 0) {
      out.raw("null");
    } else {
      out.boolean(e.serial_match == 1);
    }
    out.close_obj();
  }
  out.close_arr();
  out.key("reports").open_obj();
  for (std::size_t k = 0; k < count; ++k) {
    if (reports[k].empty()) continue;
    out.key(std::to_string(campaigns[k].seed)).str(reports[k]);
  }
  out.close_obj();
  out.key("counters").open_obj();
  for (std::size_t c = 0; c < hs::obs::kCounterCount; ++c) {
    const auto counter = static_cast<hs::obs::Counter>(c);
    out.key(std::string(hs::obs::counter_name(counter)))
        .num(all_report.counters[c]);
  }
  out.close_obj();
  out.key("phases").open_obj();
  for (std::size_t p = 0; p < hs::obs::kPhaseCount; ++p) {
    out.key(std::string(hs::obs::phase_name(static_cast<hs::obs::Phase>(p))))
        .open_obj()
        .key("calls").num(traced_report.phases[p].calls)
        .key("ns").num(traced_report.phases[p].ns)
        .close_obj();
  }
  out.close_obj();
  out.key("chunk_ms").open_arr();
  for (const double ms : chunk_span_ms(recorder)) out.num(ms);
  out.close_arr();
  out.key("leaves").open_obj();
  for (const LeafCost& leaf : leaves) out.key(leaf.name).num(leaf.value);
  out.close_obj();
  out.close_obj();

  if (traced && !write_trace(args.str("trace-file"), recorder)) return 1;
  return write_text(args.str("out"), out.text()) ? 0 : 1;
}

}  // namespace hsbench
