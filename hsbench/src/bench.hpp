// Shared helpers for the hsbench binary: flag parsing, a small JSON
// writer for the result documents run.py reads, clocks and /proc reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hsbench {

/// `--key value` flags after the subcommand. Every flag takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string str(const std::string& key,
                  const std::string& fallback = {}) const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;
  double f64(const std::string& key, double fallback) const;
  bool flag(const std::string& key) const { return u64(key, 0) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Cold starts timed per run, at least; `setup_s` is their median.
constexpr std::size_t kMinColdStarts = 7;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) of a process in KiB; 0 if unreadable.
std::uint64_t peak_rss_kb(const std::string& pid = "self");

/// Minimal streaming JSON object writer. Numbers are written with all 17
/// significant digits so run.py sees the values as measured.
class Json {
 public:
  Json& key(const std::string& k);
  Json& num(double v);
  Json& num(std::uint64_t v);
  Json& str(const std::string& s);
  Json& boolean(bool b);
  Json& raw(const std::string& text);
  Json& open_obj();
  Json& close_obj();
  Json& open_arr();
  Json& close_arr();
  const std::string& text() const { return out_; }

 private:
  void sep();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

bool write_text(const std::string& path, const std::string& text);

/// One leaf micro-cost: a name as the benchmark reports it and its
/// median cost in the named unit.
struct LeafCost {
  std::string name;
  double value;
};

/// Times every signal-path leaf at the block sizes the campaign presets
/// use. Each leaf runs inside a bench span (obs::TraceSpan) on the calling
/// thread.
std::vector<LeafCost> measure_leaves(std::uint64_t seed);

/// Writes the recorded events as a Chrome trace document; an empty path
/// writes nothing. The benchmark's own spans reach the recorder through the
/// calling thread's obs attachment (obs::TraceSpan).
bool write_trace(const std::string& path, const hs::obs::TraceRecorder& rec);

/// Seconds one burst of the frozen host-speed reference kernel takes now
/// on `threads` threads at once (about 9 ms on the host the benchmark was
/// built on).
double reference_burst_s(unsigned threads = 1);

int run_campaign_load(const Args& args);
int run_service_load(const Args& args);

}  // namespace hsbench
