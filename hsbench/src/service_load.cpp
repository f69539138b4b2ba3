// Service workload: campaign_serverd under three tenants on one daemon.
//
//  * interactive — open loop: a fixed number of small table2-coexistence
//    campaigns at priority 8, sent at seeded uniformly-placed times over
//    the window (a Poisson process conditioned on its count), pipelined on
//    one connection; latency runs from the scheduled send time to `done`.
//  * batch — closed loop of fig9-eaves-ber campaigns at priority 1.
//  * slow consumer — closed loop of record-heavy fig7-cancellation
//    campaigns, SO_RCVBUF pinned, read through a token bucket at a fixed
//    byte rate. Once per window, at the first request it sends after the
//    window's midpoint, it stops reading. The daemon's workers write chunk
//    frames synchronously, so once this connection's queue is full every
//    worker that picks one of its chunks blocks until the reader resumes:
//    the head-of-line stall a client that never reads causes. The reader
//    resumes kSlowHoldS after it sees (through /proc) a daemon thread
//    blocked in send(), which bounds the stall whatever the host's speed.
//
// The daemon listens on a Unix socket (relative path in the working
// directory). On a Unix stream socket the queued bytes count against the
// daemon's SO_SNDBUF (the kernel default, about 200 KiB), not against the
// reader's SO_RCVBUF, so the stall starts once that much is queued —
// within the window, where TCP would first autotune megabytes of buffer.
// Every request's frames are timestamped on arrival; run.py computes the
// metrics and byte-compares the reports with the serial CLI. Host-speed
// reference bursts (reference.cpp) are timed just before and just after
// the window, while the daemon is idle; run.py prints the slowdown they
// show beside the (unscaled) service metrics. A traced run also samples the
// daemon's threads through /proc to measure the time they spend blocked in
// send().
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dsp/rng.hpp"
#include "obs/metrics.hpp"

extern char** environ;

namespace hsbench {
namespace {

constexpr double kInteractiveRate = 8.0;      // requests per second
constexpr unsigned kInteractivePriority = 8;
constexpr std::size_t kInteractiveTrials = 1;  // table2: 5 points x 1
constexpr std::size_t kBatchTrials = 1;       // fig9: 18 points x 1
constexpr std::size_t kSlowTrials = 200;      // fig7: 200 chunk records
// The slow consumer's read pace: well above the rate at which the daemon
// makes its chunk frames (about 40 KB/s on a 4-vCPU Xeon), so only its read
// pause stalls the daemon.
constexpr double kSlowBytesPerS = 128 * 1024;
// Once per window the slow consumer stops reading until the daemon blocks
// on it (kSlowPauseMaxS at most), then holds for kSlowHoldS: the stall.
constexpr double kSlowPauseMaxS = 5.0;
constexpr double kSlowHoldS = 0.2;
constexpr double kSlowBucketBytes = 4096;
constexpr int kSlowRcvbuf = 2048;
constexpr unsigned kSlowPriority = 1;
constexpr double kDrainTimeoutS = 60.0;
constexpr std::size_t kReferenceBursts = 5;  // before and after the window
constexpr double kStallSamplePeriodS = 0.002;

class Daemon {
 public:
  Daemon(const std::string& serverd, const std::string& sock,
         const std::string& log) {
    const std::string unix_flag = "--unix=" + sock;
    std::vector<std::string> argv_s = {serverd, unix_flag, "--workers=2"};
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = posix_spawn(&pid_, serverd.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + serverd);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain) and reap; SIGKILL if it does not exit.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// One line-delimited client connection.
class Conn {
 public:
  Conn(const std::string& sock, int rcvbuf, double deadline_s) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long");
    }
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    // The daemon creates the socket once it listens; retry until then.
    while (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) != 0) {
      if ((errno != ENOENT && errno != ECONNREFUSED) || now_s() > deadline_s) {
        ::close(fd_);
        throw std::runtime_error("cannot connect to " + sock);
      }
      ::usleep(200);
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to daemon failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next line, reading at most `max_read` bytes per recv. False on EOF,
  /// error or when `deadline_s` passes.
  bool read_line(std::string& line, double deadline_s,
                 std::size_t max_read = 65536) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      const std::size_t got = read_some(max_read, deadline_s);
      if (got == 0) return false;
    }
  }

  /// Waits for data and appends up to `max_read` bytes; 0 on EOF/deadline.
  std::size_t read_some(std::size_t max_read, double deadline_s) {
    char tmp[65536];
    max_read = std::min(max_read, sizeof tmp);
    while (now_s() < deadline_s) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      const ssize_t n = ::recv(fd_, tmp, max_read, 0);
      if (n <= 0) return 0;
      buf_.append(tmp, static_cast<std::size_t>(n));
      return static_cast<std::size_t>(n);
    }
    return 0;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;
};

std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return {};
  std::size_t b = at + pat.size();
  if (b < line.size() && line[b] == '"') {  // still JSON-escaped
    std::size_t e = b + 1;
    while (e < line.size() && line[e] != '"') e += line[e] == '\\' ? 2 : 1;
    return line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

struct Request {
  std::string tenant;
  std::string preset;
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  unsigned priority = 1;
  double sched = 0, sent = 0, admitted = 0, first_chunk = 0, last_chunk = 0,
         done = 0;
  std::size_t chunks = 0;
  std::string status = "pending";
  std::string trailer;
  std::string report;  ///< the raw report frame

  std::string line() const {
    return "{\"cmd\":\"run\",\"preset\":\"" + preset +
           "\",\"seed\":" + std::to_string(seed) +
           ",\"trials\":" + std::to_string(trials) +
           ",\"chunk_size\":1,\"priority\":" + std::to_string(priority) + "}";
  }
};

/// Frame router for one connection: pairs admission frames with requests
/// in send order, maps ids to requests and timestamps every frame.
class Router {
 public:
  explicit Router(double window_end, std::atomic<std::size_t>* in_window)
      : window_end_(window_end), in_window_(in_window) {}

  void expect(Request* r) {
    std::lock_guard<std::mutex> lock(mutex_);
    fifo_.push_back(r);
  }

  /// Handles one frame; returns the request it finished, if any.
  Request* handle(const std::string& line) {
    const double t = now_s();
    const std::string type = field(line, "type");
    if (type == "admitted" || type == "rejected" || type == "error") {
      Request* r = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (fifo_.empty()) throw std::runtime_error("unexpected " + line);
        r = fifo_.front();
        fifo_.pop_front();
      }
      if (type != "admitted") {
        r->status = type;
        r->done = t;
        return r;
      }
      r->admitted = t;
      by_id_[field(line, "id")] = r;
      return nullptr;
    }
    auto it = by_id_.find(field(line, "id"));
    if (it == by_id_.end()) {
      throw std::runtime_error("stray frame " + line.substr(0, 80));
    }
    Request* r = it->second;
    if (type == "chunk") {
      if (r->chunks++ == 0) r->first_chunk = t;
      r->last_chunk = t;
      if (t <= window_end_) ++*in_window_;
    } else if (type == "trailer") {
      r->trailer = field(line, "line");
    } else if (type == "report") {
      r->report = line;
    } else if (type == "done" || type == "cancelled") {
      r->status = type;
      r->done = t;
      by_id_.erase(it);
      return r;
    }
    return nullptr;
  }

 private:
  double window_end_;
  std::atomic<std::size_t>* in_window_;
  std::mutex mutex_;
  std::deque<Request*> fifo_;
  std::map<std::string, Request*> by_id_;  // reader thread only
};

struct Phase {
  double start = 0, seconds = 0;
  /// Chunk frames received within the window, per tenant.
  std::size_t interactive_chunks = 0, batch_chunks = 0, slow_chunks = 0;
  /// Host-speed reference bursts timed just before and after the window.
  std::vector<double> reference_s;
  /// Daemon thread-seconds spent blocked in send() within the window;
  /// negative when not sampled.
  double send_blocked_s = -1;
  std::vector<Request> requests;
  std::string error;  ///< empty unless a tenant's connection failed
};

/// Threads of process `pid` asleep in a socket send. A thread's /proc
/// syscall file holds the syscall number only while it sleeps in one
/// ("running" otherwise). 0 where /proc does not expose it.
std::size_t threads_blocked_in_send(pid_t pid) {
  std::size_t count = 0;
  try {
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task")) {
      std::ifstream in(task.path() / "syscall");
      long nr = -1;
      if (in >> nr && (nr == SYS_sendto || nr == SYS_sendmsg)) ++count;
    }
  } catch (const std::filesystem::filesystem_error&) {
    return 0;  // the daemon exited or /proc is not readable
  }
  return count;
}

/// Samples process `pid` from `start` until `end` and adds up the thread
/// time spent blocked in send(): the head-of-line stall as the daemon's
/// workers live it.
double sample_send_blocked_s(pid_t pid, double start, double end) {
  double blocked = 0.0, last = start;
  while (now_s() < start) ::usleep(500);
  for (double t = now_s(); t < end; t = now_s()) {
    blocked += static_cast<double>(threads_blocked_in_send(pid)) * (t - last);
    last = t;
    ::usleep(static_cast<useconds_t>(kStallSamplePeriodS * 1e6));
  }
  return blocked;
}

/// How the slow consumer reads: through a token bucket, with one pause.
struct Pacing {
  double pause_at;  ///< the first request sent after this is left unread
  pid_t daemon;     ///< until a thread of this process blocks in send()
};

/// Closed loop: one request at a time until the window ends, read as
/// `pacing` says (as fast as frames arrive without it).
void closed_loop(Conn& conn, std::string& error, std::deque<Request>& out,
                 Request proto, std::uint64_t seed, double window_end,
                 std::atomic<std::size_t>* in_window, const Pacing* pacing) {
  Router router(window_end, in_window);
  double tokens = 0.0, last = now_s();
  bool paused = false;
  const double deadline = window_end + kDrainTimeoutS;
  for (std::size_t k = 0; now_s() < window_end; ++k) {
    Request r = proto;
    r.seed = hs::dsp::derive_seed(seed, proto.tenant + std::to_string(k));
    r.sched = r.sent = now_s();
    out.push_back(r);
    router.expect(&out.back());
    conn.send_line(r.line());
    if (pacing && !paused && r.sent >= pacing->pause_at) {
      // The bounded stall: read nothing until the daemon blocks writing to
      // this connection, then for kSlowHoldS more.
      paused = true;
      const double give_up = now_s() + kSlowPauseMaxS;
      while (now_s() < give_up &&
             threads_blocked_in_send(pacing->daemon) == 0) {
        ::usleep(static_cast<useconds_t>(kStallSamplePeriodS * 1e6));
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kSlowHoldS));
      tokens = 0.0;
      last = now_s();
    }
    for (;;) {
      std::string line;
      std::size_t max_read = 65536;
      if (pacing) {
        for (;;) {
          const double t = now_s();
          tokens = std::min(kSlowBucketBytes,
                            tokens + (t - last) * kSlowBytesPerS);
          last = t;
          if (tokens >= 512) break;
          ::usleep(5000);
        }
        max_read = static_cast<std::size_t>(tokens);
      }
      if (!conn.read_line(line, deadline, max_read)) {
        error = proto.tenant + ": connection closed or timed out";
        out.back().status = "timeout";
        return;
      }
      if (pacing) tokens -= static_cast<double>(line.size() + 1);
      if (router.handle(line) != nullptr) break;
    }
  }
}

Phase run_phase(const std::string& sock, std::uint64_t seed, double seconds,
                pid_t daemon, bool sample_stall) {
  Phase phase;
  phase.seconds = seconds;
  const double setup_deadline = now_s() + 30;
  Conn interactive(sock, 0, setup_deadline);
  Conn batch(sock, 0, setup_deadline);
  Conn slow(sock, kSlowRcvbuf, setup_deadline);

  // Interactive schedule: N arrivals placed uniformly at random over the
  // window, sorted — a Poisson process of rate kInteractiveRate given N.
  const auto n =
      static_cast<std::size_t>(std::ceil(kInteractiveRate * seconds));
  hs::dsp::Rng rng(seed, "interactive-arrivals");
  std::vector<double> offsets(n);
  for (double& o : offsets) o = rng.uniform(0.0, seconds);
  std::sort(offsets.begin(), offsets.end());
  std::vector<Request> inter(n);
  for (std::size_t i = 0; i < n; ++i) {
    inter[i].tenant = "interactive";
    inter[i].preset = "table2-coexistence";
    inter[i].seed =
        hs::dsp::derive_seed(seed, "interactive" + std::to_string(i));
    inter[i].trials = kInteractiveTrials;
    inter[i].priority = kInteractivePriority;
  }
  std::deque<Request> batch_reqs, slow_reqs;  // stable addresses for Router
  std::atomic<std::size_t> inter_chunks{0}, batch_chunks{0}, slow_chunks{0};

  for (std::size_t k = 0; k < kReferenceBursts; ++k) {
    phase.reference_s.push_back(reference_burst_s());
  }
  phase.start = now_s() + 0.05;
  const double window_end = phase.start + seconds;
  const double deadline = window_end + kDrainTimeoutS;
  Router inter_router(window_end, &inter_chunks);
  std::string sender_error, receiver_error, batch_error, slow_error;

  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const double due = phase.start + offsets[i];
        for (double t = now_s(); t < due; t = now_s()) {
          ::usleep(static_cast<useconds_t>(std::min(1e6 * (due - t), 2000.0)));
        }
        inter[i].sched = due;
        inter[i].sent = now_s();
        inter_router.expect(&inter[i]);
        interactive.send_line(inter[i].line());
      }
    } catch (const std::exception& e) {
      sender_error = e.what();
    }
  });
  std::thread receiver([&] {
    try {
      for (std::size_t finished = 0; finished < n;) {
        std::string line;
        if (!interactive.read_line(line, deadline)) {
          receiver_error = "interactive: connection closed or timed out";
          return;
        }
        if (inter_router.handle(line) != nullptr) ++finished;
      }
    } catch (const std::exception& e) {
      receiver_error = e.what();
    }
  });
  Request batch_proto;
  batch_proto.tenant = "batch";
  batch_proto.preset = "fig9-eaves-ber";
  batch_proto.trials = kBatchTrials;
  batch_proto.priority = 1;
  Request slow_proto;
  slow_proto.tenant = "slow";
  slow_proto.preset = "fig7-cancellation";
  slow_proto.trials = kSlowTrials;
  slow_proto.priority = kSlowPriority;
  std::thread batch_thread([&] {
    while (now_s() < phase.start) ::usleep(500);
    try {
      closed_loop(batch, batch_error, batch_reqs, batch_proto, seed,
                  window_end, &batch_chunks, nullptr);
    } catch (const std::exception& e) {
      batch_error = e.what();
    }
  });
  std::thread stall_sampler;
  if (sample_stall) {
    stall_sampler = std::thread([&] {
      phase.send_blocked_s =
          sample_send_blocked_s(daemon, phase.start, window_end);
    });
  }
  while (now_s() < phase.start) ::usleep(500);
  const Pacing pacing{phase.start + seconds / 2, daemon};
  try {
    closed_loop(slow, slow_error, slow_reqs, slow_proto, seed, window_end,
                &slow_chunks, &pacing);
  } catch (const std::exception& e) {
    slow_error = e.what();
  }
  sender.join();
  receiver.join();
  batch_thread.join();
  if (stall_sampler.joinable()) stall_sampler.join();
  // Every request has ended, so the daemon is idle again.
  for (std::size_t k = 0; k < kReferenceBursts; ++k) {
    phase.reference_s.push_back(reference_burst_s());
  }
  for (const std::string* e :
       {&sender_error, &receiver_error, &batch_error, &slow_error}) {
    if (!e->empty()) phase.error += *e + "; ";
  }
  for (Request& r : inter) {
    if (r.status == "pending") r.status = "timeout";
  }
  phase.interactive_chunks = inter_chunks.load();
  phase.batch_chunks = batch_chunks.load();
  phase.slow_chunks = slow_chunks.load();
  phase.requests = std::move(inter);
  for (const std::deque<Request>* tenant : {&batch_reqs, &slow_reqs}) {
    phase.requests.insert(phase.requests.end(), tenant->begin(),
                          tenant->end());
  }
  return phase;
}

/// Request spans (queue wait, execution, emit), one timeline row per
/// request.
void trace_requests(hs::obs::TraceRecorder& rec, const Phase& phase) {
  const double epoch = now_s() - static_cast<double>(rec.now_ns()) / 1e9;
  const auto ts = [&](double t) {
    return static_cast<std::uint64_t>(std::max(0.0, (t - epoch) * 1e9));
  };
  std::size_t k = 0;
  for (const Request& r : phase.requests) {
    if (r.status != "done") continue;
    const std::uint32_t tid =
        rec.register_thread(r.tenant + "-" + std::to_string(k++));
    const std::string args = "{\"tenant\":\"" + r.tenant + "\",\"seed\":" +
                             std::to_string(r.seed) + "}";
    std::vector<hs::obs::TraceEvent> ev;
    const auto span = [&](const char* name, double b, double e) {
      ev.push_back({name, "bench", 'B', ts(b), tid, args});
      ev.push_back({name, "bench", 'E', ts(e), tid, {}});
    };
    ev.push_back({"serve.request", "bench", 'B', ts(r.sched), tid, args});
    span("serve.queue_wait", r.admitted, r.first_chunk);
    span("serve.exec", r.first_chunk, r.last_chunk);
    span("serve.emit", r.last_chunk, r.done);
    ev.push_back({"serve.request", "bench", 'E', ts(r.done), tid, {}});
    rec.add(ev);
  }
}

void write_phase(Json& out, const Phase& phase) {
  const auto rel = [&](double t) { return t > 0 ? t - phase.start : -1.0; };
  out.open_obj()
      .key("seconds").num(phase.seconds)
      .key("send_blocked_s").num(phase.send_blocked_s)
      .key("interactive_chunks").num(std::uint64_t{phase.interactive_chunks})
      .key("batch_chunks").num(std::uint64_t{phase.batch_chunks})
      .key("slow_chunks").num(std::uint64_t{phase.slow_chunks})
      .key("error").str(phase.error);
  out.key("reference_s").open_arr();
  for (const double r : phase.reference_s) out.num(r);
  out.close_arr();
  out.key("requests").open_arr();
  for (const Request& r : phase.requests) {
    out.open_obj()
        .key("tenant").str(r.tenant)
        .key("preset").str(r.preset)
        .key("seed").num(r.seed)
        .key("trials").num(static_cast<std::uint64_t>(r.trials))
        .key("status").str(r.status)
        .key("sched").num(rel(r.sched))
        .key("sent").num(rel(r.sent))
        .key("admitted").num(rel(r.admitted))
        .key("first_chunk").num(rel(r.first_chunk))
        .key("last_chunk").num(rel(r.last_chunk))
        .key("done").num(rel(r.done))
        .key("chunks").num(static_cast<std::uint64_t>(r.chunks))
        .key("trailer").str(r.trailer)
        .key("report").str(r.report)
        .close_obj();
  }
  out.close_arr().close_obj();
}

}  // namespace

int run_service_load(const Args& args) {
  const std::string serverd = args.str("serverd");
  const std::uint64_t seed = args.u64("seed", 1);
  const double seconds = args.f64("seconds", 10.0);
  const bool traced = args.flag("traced");
  const std::string log = "serverd.log";

  hs::obs::TraceRecorder recorder;
  hs::obs::MetricsRegistry bench_registry(false);
  hs::obs::WorkerScope scope(&bench_registry, traced ? &recorder : nullptr,
                             "bench");

  // Set-up: daemon spawn until the first pong, from a cold process.
  std::vector<double> setup_s, setup_reference_s;
  for (std::size_t k = 0; k < kMinColdStarts; ++k) {
    setup_reference_s.push_back(reference_burst_s());
    const std::string sock = "setup" + std::to_string(k) + ".sock";
    ::unlink(sock.c_str());
    std::optional<hs::obs::TraceSpan> span;
    span.emplace("bench", "serve.spawn_to_pong");
    const double t0 = now_s();
    Daemon daemon(serverd, sock, log);
    Conn conn(sock, 0, t0 + 30);
    conn.send_line("{\"cmd\":\"ping\"}");
    std::string line;
    if (!conn.read_line(line, t0 + 30) || field(line, "type") != "pong") {
      std::fprintf(stderr, "hsbench: no pong from the daemon\n");
      return 1;
    }
    setup_s.push_back(now_s() - t0);
    span.reset();
  }
  scope.flush();

  ::unlink("hs.sock");
  Daemon daemon(serverd, "hs.sock", log);
  const Phase phase =
      run_phase("hs.sock", seed, seconds, daemon.pid(), traced);
  if (traced) trace_requests(recorder, phase);
  const std::uint64_t rss_kb = peak_rss_kb(std::to_string(daemon.pid()));
  daemon.stop();

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
  out.key("peak_rss_kb").num(rss_kb);
  out.key("phase");
  write_phase(out, phase);
  out.key("leaves").open_obj();
  for (const LeafCost& leaf : leaves) out.key(leaf.name).num(leaf.value);
  out.close_obj();
  out.close_obj();
  if (traced && !write_trace(args.str("trace-file"), recorder)) return 1;
  return write_text(args.str("out"), out.text()) ? 0 : 1;
}

}  // namespace hsbench
