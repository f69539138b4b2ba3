/// @file
/// Versioned, self-describing chunk-stream serialization (JSONL) for
/// sharded multi-process campaigns, its one reader, and the one cover
/// that folds shard streams back into aggregates bit-identical to a
/// serial run.
///
/// Wire format — one JSON object per line, each line ending in a
/// CRC-16/CCITT checksum field (v3) so any single-byte corruption of a
/// line is detected rather than merged:
///
///   line 1    header: {"format":"hs-chunk-stream","version":3,
///             "scenario":...,"seed":...,"trials_per_point":...,
///             "chunk_size":...,"shard_count":K,"shard_index":i,
///             "point_count":...,"total_chunks":...,"chunk_count":N,
///             "mode":"deal"|"repair","crc":"xxxx"}
///   lines 2+  exactly N chunk records in ascending global chunk id:
///             {"chunk":id,"point":p,"trial_begin":a,"trial_end":b,
///              "metrics":{"<metric_name>":{"count":n,"mean":"0x...",
///              "m2":"0x...","min":"0x...","max":"0x..."}},"crc":"xxxx"}
///   last line metrics trailer (v2+, mandatory): the shard's merged
///             observability report, so `--merge` can aggregate all K
///             shards' counters and phase timers:
///             {"trailer":"hs-metrics","version":2,"threads":T,
///              "wall_ns":W,"counters":{"<counter>":n,... every
///              obs::Counter in enum order},"phases":{"<phase>":
///              {"calls":c,"ns":t},... every obs::Phase in enum order},
///              "crc":"xxxx"}
///
/// The "crc" value is the CRC-16/CCITT-FALSE of the line as it would
/// read WITHOUT the crc field (payload bytes up to the ',"crc"' suffix
/// plus the closing '}'), as four lowercase hex digits. A CRC-16 detects
/// every burst error up to 16 bits, so any single-byte mutation of a
/// line fails the check even when the mutated line would still parse.
///
/// "mode" is "deal" for a stream produced by the round-robin shard plan
/// (every chunk id satisfies id % K == i) and "repair" for a re-deal
/// stream produced by the fault-tolerant dispatcher (explicit chunk ids;
/// see dispatch.hpp).
///
/// Doubles travel as C99 hex-float strings ("0x1.5bf0a8b145769p+1"):
/// exact binary round trip, no decimal rounding, locale-proof. Only
/// metrics with samples are written; trailer counters/phases are always
/// written (integers, zero included) so the trailer layout is fixed.
///
/// One reader: salvage_chunk_stream() accepts the longest prefix of
/// lines the wire rules allow and says whether the whole stream is
/// complete; the strict parse is that plus "must be complete".
///
/// One cover: ChunkCover decides which records make a campaign. It takes
/// the campaign identity from the first sealed header, rejects any
/// sealed header that disagrees with it, pins every record to the global
/// chunk enumeration, tracks covered and missing chunk ids, sums the
/// trailers of complete streams, and folds through fold_chunks() in
/// ascending chunk id. Strict mode (`--merge`) takes only complete deal
/// streams and makes a duplicate or missing id an error naming the
/// shard, source and line; recover mode (`--recover`, `--dispatch`)
/// keeps the first copy of each id and reports what is still missing.
#pragma once

#include <deque>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"

namespace hs::campaign {

/// Parse/validation failure in a chunk stream; the message names the
/// offending source and line.
class ChunkStreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// v2 appended the mandatory metrics trailer line; v3 added the per-line
/// CRC and the header "mode" field (deal vs repair). Older streams are
/// rejected — regenerate with --emit-chunks.
inline constexpr int kChunkStreamVersion = 3;

struct ChunkStreamHeader {
  int version = kChunkStreamVersion;
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t trials_per_point = 0;
  std::size_t chunk_size = 1;
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  std::size_t point_count = 0;
  std::size_t total_chunks = 0;  ///< across ALL shards
  std::size_t chunk_count = 0;   ///< records in THIS stream
  /// Repair streams carry an explicit chunk set (re-dealt by the
  /// dispatcher) instead of the round-robin deal, so the per-record
  /// `id % shard_count == shard_index` membership rule does not apply.
  bool repair = false;
};

struct ChunkRecord {
  ChunkRef ref;
  ChunkMetrics metrics;
  /// 1-based line in the source stream — the locator cover and salvage
  /// diagnostics report.
  std::size_t lineno = 0;
};

/// The shard's observability report as carried by the v2+ trailer line.
struct ShardMetricsTrailer {
  int version = obs::kMetricsVersion;
  unsigned threads = 1;
  std::uint64_t wall_ns = 0;
  obs::Report report;
};

/// One read stream, whole or salvaged. Salvage semantics (pinned by
/// test_shard_merge's Salvage* tests):
///   - the header must parse, else nothing is salvaged;
///   - records are accepted one by one under the full wire rules (CRC,
///     field layout, ascending ids, plan membership) and acceptance
///     stops at the first offending line, so a salvaged prefix is always
///     a prefix of what the intact stream carried;
///   - `complete` is true iff the records fulfil the header's promise and
///     the trailer checks out; only then is `trailer` meaningful.
struct ChunkStream {
  bool header_valid = false;
  ChunkStreamHeader header;
  std::vector<ChunkRecord> chunks;
  bool complete = false;
  ShardMetricsTrailer trailer;
  /// The stream's name (file path); diagnostics quote it.
  std::string source;
  /// Why the read stopped short (empty when complete): a full
  /// `chunk-stream:` diagnostic naming the source and, where one is at
  /// fault, the line.
  std::string truncation_reason;
};

/// Trailers summed across the complete streams of a campaign: thread
/// counts and wall time are summed (total CPU budget, not elapsed time),
/// the reports merged counter-by-counter. Kept separate from the
/// canonical CampaignResult, whose runtime fields stay zeroed.
struct MergedMetrics {
  std::size_t shards = 0;
  unsigned threads = 0;
  std::uint64_t wall_ns = 0;
  obs::Report report;
};

/// Reads a possibly truncated or corrupted stream. Never throws.
ChunkStream salvage_chunk_stream(std::string_view text,
                                 std::string_view source);

/// Reads and salvages the file at `path`. An unreadable file yields an
/// empty stream (header_valid=false) with the reason recorded: a dead
/// shard's missing stream is data loss, not a crash.
ChunkStream load_chunk_stream(const std::string& path);

/// Throws ChunkStreamError with the stream's truncation reason unless it
/// is complete.
void require_complete(const ChunkStream& stream);

/// The strict parse: salvage_chunk_stream() plus require_complete().
ChunkStream parse_chunk_stream(std::string_view text,
                               std::string_view source);

/// Serializes one shard's execution. `options` supplies the campaign
/// seed; the resolved geometry comes from exec.plan.
std::string serialize_chunk_stream(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   const ShardExecution& exec);

/// Single-line serializers for incremental producers — the service
/// daemon frames these in its responses as chunks complete. Each
/// returns the exact sealed line (no trailing newline) that
/// serialize_chunk_stream would have written, so a client that collects
/// the header, every record sorted by ascending chunk id, and the
/// trailer, joined by '\n', holds a byte-identical, strictly parseable
/// v3 stream it can feed back through `--merge`.
std::string serialize_stream_header(const Scenario& scenario,
                                    const CampaignOptions& options,
                                    const ShardPlan& plan);
std::string serialize_chunk_record(const ChunkRef& ref,
                                   const ChunkMetrics& metrics);
std::string serialize_metrics_trailer(unsigned threads, double wall_seconds,
                                      const obs::Report& report);

enum class CoverMode {
  kStrict,   ///< complete deal streams, every chunk id exactly once
  kRecover,  ///< any salvaged prefix, first copy of each id wins
};

/// Which records make a campaign, and in what order they fold.
///
/// In both modes a sealed header that disagrees with the campaign
/// identity (scenario, seed, trials, chunk size, shard count, geometry)
/// is a ChunkStreamError. In strict mode so are an incomplete stream, a
/// repair stream, a record that is not the planned chunk, and a
/// duplicate id; fold() also rejects a missing id. In recover mode an
/// unsealed header contributes nothing, a record that is not the planned
/// chunk ends its stream's contribution, and a duplicate is counted and
/// dropped (determinism makes both copies bit-identical).
class ChunkCover {
 public:
  ChunkCover(const Scenario& scenario, CoverMode mode);
  // The slots point into the streams this cover owns.
  ChunkCover(const ChunkCover&) = delete;
  ChunkCover& operator=(const ChunkCover&) = delete;

  /// Fixes the campaign identity before any stream arrives (the
  /// dispatcher knows it); otherwise the first sealed header fixes it.
  void pin(const CampaignOptions& options, std::size_t shard_count);

  /// Takes one stream's records. Returns how many were dropped as
  /// duplicates.
  std::size_t add(ChunkStream stream);

  /// The campaign identity, or null before any sealed header arrived.
  const ChunkStreamHeader* identity() const;

  /// Chunk ids no accepted record covers yet, ascending.
  std::vector<std::size_t> missing() const;

  /// Records dropped as duplicates so far.
  std::size_t duplicates() const { return duplicates_; }

  /// K minus the distinct shard indices that have a complete deal stream.
  std::size_t shards_dead() const;

  /// The summed trailers of every complete stream added.
  const MergedMetrics& metrics() const { return metrics_; }

  /// The canonical result (runtime fields zeroed): every chunk id's
  /// accepted record, folded by fold_chunks(). Throws ChunkStreamError
  /// when no identity is known or an id is missing.
  CampaignResult fold() const;

 private:
  struct Slot {
    const ChunkStream* stream = nullptr;
    const ChunkRecord* record = nullptr;
  };

  void set_identity(const ChunkStreamHeader& header, std::string label);

  const Scenario& scenario_;
  CoverMode mode_;
  bool have_identity_ = false;
  ChunkStreamHeader identity_;
  std::string identity_label_;  ///< who fixed the identity, for errors
  ShardPlan global_;            ///< plan_shard(scenario, identity, 1, 0)
  std::deque<ChunkStream> streams_;  ///< owns the records slots_ point at
  std::vector<Slot> slots_;          ///< by chunk id
  std::set<std::size_t> live_shards_;
  std::size_t duplicates_ = 0;
  MergedMetrics metrics_;
};

/// Strict cover of K complete deal streams: the `--merge` path. Its
/// per-point aggregates, and so its CSV/JSON reports, are bit-identical
/// to the serial run of the same (scenario, seed, trials, chunk size).
/// The result's runtime fields (wall time, threads) are zeroed. With
/// `metrics` non-null the shard trailers are summed into it (order never
/// matters: Report::merge is integer addition). Throws ChunkStreamError.
CampaignResult merge_chunk_streams(const Scenario& scenario,
                                   std::vector<ChunkStream> streams,
                                   MergedMetrics* metrics = nullptr);

}  // namespace hs::campaign
