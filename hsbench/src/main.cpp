// hsbench: the native half of the repository benchmark (run.py drives it).
//
//   hsbench campaign --preset P --threads N --trials T --seed S
//                    --seconds X --out FILE [--traced 1] [--trace-file F]
//   hsbench service  --serverd PATH --seed S --seconds X --out FILE
//                    [--traced 1] [--trace-file F]
//   hsbench info
//
// Each mode writes one JSON result document to --out; run.py turns it into
// the benchmark's metrics and checks.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "campaign/report.hpp"
#include "dsp/kernels.hpp"

namespace hsbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad flag: ") + argv[i]);
    }
    values_[argv[i] + 2] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE ||
      it->second[0] == '-') {
    throw std::invalid_argument("bad integer for --" + key);
  }
  return v;
}

double Args::f64(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') {
    throw std::invalid_argument("bad number for --" + key);
  }
  return v;
}

std::uint64_t peak_rss_kb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += hs::campaign::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

void Json::sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

Json& Json::key(const std::string& k) {
  sep();
  out_ += json_string(k) + ":";
  after_key_ = true;
  return *this;
}

Json& Json::num(double v) {
  sep();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::num(std::uint64_t v) {
  sep();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& s) {
  sep();
  out_ += json_string(s);
  return *this;
}

Json& Json::boolean(bool b) {
  sep();
  out_ += b ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& text) {
  sep();
  out_ += text;
  return *this;
}

Json& Json::open_obj() {
  sep();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::close_obj() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::open_arr() {
  sep();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::close_arr() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "hsbench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool write_trace(const std::string& path, const hs::obs::TraceRecorder& rec) {
  return path.empty() || write_text(path, rec.to_json());
}

}  // namespace hsbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hsbench campaign|service|info [--flag value]...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const hsbench::Args args(argc, argv, 2);
    if (mode == "campaign") return hsbench::run_campaign_load(args);
    if (mode == "service") return hsbench::run_service_load(args);
    if (mode == "info") {
      std::printf("{\"kernel_backend\":\"%s\"}\n",
                  hs::dsp::kernels::backend_name(
                      hs::dsp::kernels::active_backend()));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsbench: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "hsbench: unknown mode %s\n", mode.c_str());
  return 2;
}
