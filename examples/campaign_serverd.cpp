// campaign_serverd: resident campaign-as-a-service daemon. Keeps its
// per-worker trial contexts across requests, admits campaigns through a
// bounded queue (429-style rejection with a retry-after hint when
// saturated), interleaves the chunks of concurrent campaigns
// weighted-fair over one work pool, and streams each campaign's v3
// chunk records back incrementally. The final report of
// every request is byte-identical to a serial `campaign_runner` run of
// the same (preset, seed, trials, chunk) — see serve/scheduler.hpp for
// the determinism argument and serve/protocol.hpp for the wire format.
//
// SIGTERM/SIGINT drain gracefully: no new connections or admissions,
// every already-admitted campaign finishes streaming, then the process
// exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "serve/server.hpp"

using namespace hs;

namespace {

serve::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // write() only — safe
}

int usage(const char* argv0, bool is_error) {
  std::fprintf(
      is_error ? stderr : stdout,
      "usage: %s [--port=N | --unix=PATH] [--workers=N]\n"
      "          [--max-active=N] [--max-queue=N] [--port-file=PATH]\n"
      "  Serves the line-delimited JSON campaign protocol (see\n"
      "  docs/REPRODUCING.md) on 127.0.0.1:PORT (default: an ephemeral\n"
      "  port) or a Unix-domain socket. --port-file writes the bound TCP\n"
      "  port to PATH once listening, for scripts that pass --port=0.\n"
      "  --workers=0 uses all hardware threads. --max-active bounds the\n"
      "  campaigns scheduled concurrently, --max-queue the admitted\n"
      "  backlog beyond that; a request past both is rejected with\n"
      "  {\"type\":\"rejected\",\"code\":429,...}.\n"
      "  SIGTERM drains gracefully: admitted campaigns finish streaming\n"
      "  before exit.\n",
      argv0);
  return is_error ? 1 : 0;
}

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

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  options.scheduler.workers = 0;  // hardware concurrency
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if ((value = flag_value(arg, "--port", argc, argv, &i))) {
      const std::uint64_t port = parse_u64(value, "--port");
      if (port > std::numeric_limits<std::uint16_t>::max()) {
        std::fprintf(stderr, "--port=%s out of range\n", value);
        return 1;
      }
      options.tcp_port = static_cast<std::uint16_t>(port);
    } else if ((value = flag_value(arg, "--unix", argc, argv, &i))) {
      options.unix_path = value;
    } else if ((value = flag_value(arg, "--workers", argc, argv, &i))) {
      options.scheduler.workers =
          static_cast<unsigned>(parse_u64(value, "--workers"));
    } else if ((value = flag_value(arg, "--max-active", argc, argv, &i))) {
      options.scheduler.max_active = parse_u64(value, "--max-active");
      if (options.scheduler.max_active == 0) {
        std::fprintf(stderr, "--max-active must be >= 1\n");
        return 1;
      }
    } else if ((value = flag_value(arg, "--max-queue", argc, argv, &i))) {
      options.scheduler.max_queue = parse_u64(value, "--max-queue");
    } else if ((value = flag_value(arg, "--port-file", argc, argv, &i))) {
      port_file = value;
    } else {
      return usage(argv[0], std::strcmp(arg, "--help") != 0);
    }
  }

  obs::ServiceStats stats;
  serve::Server server(options, &stats);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_serverd: %s\n", e.what());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // writers handle EPIPE per connection

  if (!options.unix_path.empty()) {
    std::fprintf(stderr, "campaign_serverd: listening on %s\n",
                 options.unix_path.c_str());
  } else {
    std::fprintf(stderr, "campaign_serverd: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.bound_port()));
    if (!port_file.empty()) {
      std::FILE* f = std::fopen(port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "campaign_serverd: cannot write %s\n",
                     port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.bound_port()));
      std::fclose(f);
    }
  }

  try {
    server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_serverd: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "campaign_serverd: drained, exiting\n");
  return 0;
}
