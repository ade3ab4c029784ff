// perfbench_probe — the measuring half of the repository benchmark.
//
// Every number is taken from outside the library: this program calls the
// modules' public functions and times the calls, or spawns spgcmp_serve
// and times it from the client side.  perfbench/run.py drives it; each
// subcommand prints one JSON object on its last stdout line.
//
//   perfbench_probe grid   --threads=N --apps=N --apps150=N --step=N
//                          --step150=N --out=DIR [--setup-only]
//                          [--trace=FILE --metrics=FILE] [--replay-dpa1d]
//       The paper campaign grid (figs 8-13), one SweepPlan::run_all per
//       sweep, BENCH_<sweep>.json written under --out.  Its setup_s runs
//       from main() until the first instance is dispatched.  --replay-dpa1d
//       then re-runs DPA1D alone at every period rung the search visited.
//
//   perfbench_probe serve  --mode=hits|misses --daemon=PATH --dir=DIR
//                          --timed=FILE --problems=FILE [--conns=N]
//                          [--rate=R] [--cache=N] [--setups=N] [--trace]
//       Each set-up pass spawns the daemon and solves every problem once.
//       hits: then a closed loop over a Unix socket.  misses: then an open
//       loop over the stdin stream transport at a constant rate.
//       Latencies land in DIR/lat.txt, raw response lines (misses) in
//       DIR/responses.jsonl.
//
//   perfbench_probe replay --mode=hits|misses --timed=FILE
//                          [--problems=FILE] [--responses=FILE] [--cache=N]
//                          [--limit=N] [--threads=N] [--time]
//       Replays request lines in-process through the serve layers.  With
//       --time it runs on one thread and times each call (per-layer
//       numbers); otherwise it only recomputes reports, in parallel, and
//       compares them with the daemon's.
//
// Request files hold one request per line as "<problem index>\t<json>".

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness/experiment.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "solve/solve.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace spgcmp;

// ------------------------------------------------------------- helpers ----

[[noreturn]] void die(const std::string& msg) {
  throw std::runtime_error(msg);
}

/// Threads that are joined on every path; join_all() rethrows the first
/// exception any of them raised instead of letting it end the program.
class Workers {
 public:
  Workers() = default;
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  ~Workers() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  template <class F>
  void spawn(F body) {
    threads_.emplace_back([this, body = std::move(body)]() mutable {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lk(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }
  void join_all() {
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;  // guarded by mutex_ until join_all()
  std::vector<std::thread> threads_;
};

/// CLOCK_MONOTONIC seconds.
double mono() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_until(double t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

struct Flags {
  std::map<std::string, std::string> kv;
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) die("unexpected argument: " + a);
      const auto eq = a.find('=');
      if (eq == std::string::npos) {
        kv[a.substr(2)] = "1";
      } else {
        kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    }
  }
  [[nodiscard]] bool has(const std::string& k) const { return kv.count(k) != 0; }
  [[nodiscard]] std::string need(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) die("missing --" + k);
    return it->second;
  }
  [[nodiscard]] std::size_t count(const std::string& k) const {
    return static_cast<std::size_t>(std::stoul(need(k)));
  }
};

/// Shortest-round-trip-enough rendering for the JSON summaries.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Percentile of an unsorted sample, interpolating linearly between the
/// closest ranks (fold_trace.percentile does the same); 0 when empty.
double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// {"n":..,"p50":..,"p99":..,"mean":..} of a sample.
std::string dist(const std::vector<double>& v) {
  return "{\"n\":" + std::to_string(v.size()) + ",\"p50\":" + num(pct(v, 0.5)) +
         ",\"p99\":" + num(pct(v, 0.99)) + ",\"mean\":" + num(mean(v)) + "}";
}

double cpu_self_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// user+sys CPU seconds of a live child, from /proc/<pid>/stat.
double cpu_of(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) die("cannot read /proc stat of the daemon");
  std::istringstream is(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after "(comm)": state is #3; utime and stime are #14 and #15.
  for (int i = 3; i <= 15 && is >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a live process, in KiB.
double hwm_kb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  die("no VmHWM for the daemon");
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  if (!f) die("cannot open " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// "<index>\t<json>" request lines.
struct ReqLine {
  std::size_t problem = 0;
  std::string json;
};

std::vector<ReqLine> read_requests(const std::string& path) {
  std::vector<ReqLine> out;
  for (const auto& line : read_lines(path)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) die("request line without index: " + path);
    out.push_back({std::stoul(line.substr(0, tab)), line.substr(tab + 1)});
  }
  return out;
}

/// Offset of the value of top-level-looking member `name` in a compact
/// response frame (whitespace after the colon allowed); npos if absent.
std::size_t value_at(const std::string& frame, const std::string& name) {
  auto at = frame.find("\"" + name + "\":");
  if (at == std::string::npos) return at;
  at += name.size() + 3;
  while (at < frame.size() && frame[at] == ' ') ++at;
  return at;
}

/// True when member `name` holds the string `value`.
bool member_is(const std::string& frame, const std::string& name, const std::string& value) {
  const auto at = value_at(frame, name);
  return at != std::string::npos && frame.compare(at, value.size() + 2, "\"" + value + "\"") == 0;
}

/// The verbatim report payload of an ok frame (render_ok puts it last).
std::string report_of(const std::string& frame) {
  const auto at = value_at(frame, "report");
  if (at == std::string::npos || frame.back() != '}') return {};
  return frame.substr(at, frame.size() - at - 1);
}

// ---------------------------------------------------------------- grid ----

/// The rungs the paper's period search visits for an instance whose search
/// retained `period` (harness::run_campaign's control flow, replayed).
std::vector<double> visited_rungs(double period, bool any_success) {
  const harness::PeriodSearchOptions opt;
  std::vector<double> rungs;
  double T = opt.start;
  rungs.push_back(T);
  if (!any_success || period > T) {
    for (int up = 0; up < opt.max_upscale; ++up) {
      T *= opt.factor;
      rungs.push_back(T);
      if (any_success && T == period) break;
    }
    if (!any_success) return rungs;
  }
  while (T != period) {
    T /= opt.factor;
    rungs.push_back(T);
    if (T < opt.floor) die("period search replay lost its retained rung");
  }
  if (T / opt.factor >= opt.floor) rungs.push_back(T / opt.factor);
  return rungs;
}

struct Dpa1dReplay {
  std::size_t calls = 0, ok = 0, budget = 0, infeasible = 0, mismatches = 0;
  double ok_s = 0, budget_s = 0, infeasible_s = 0;

  Dpa1dReplay& operator+=(const Dpa1dReplay& o) {
    calls += o.calls;
    ok += o.ok;
    budget += o.budget;
    infeasible += o.infeasible;
    mismatches += o.mismatches;
    ok_s += o.ok_s;
    budget_s += o.budget_s;
    infeasible_s += o.infeasible_s;
    return *this;
  }
};

Dpa1dReplay replay_dpa1d(const std::vector<campaign::SweepSpec>& sweeps,
                         const std::vector<std::vector<campaign::InstanceResult>>& results,
                         std::size_t threads) {
  struct Job {
    std::size_t sweep = 0;
    std::function<spg::Spg()> make;
    const campaign::InstanceResult* result = nullptr;
  };
  std::vector<Job> jobs;
  std::vector<cmp::Platform> platforms;
  std::vector<std::string> spec_of;  // DPA1D's registry spec per sweep
  std::vector<std::size_t> index_of;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const auto& sw = sweeps[s];
    platforms.push_back(cmp::Platform::reference("mesh", sw.rows, sw.cols));
    const auto set = campaign::sweep_solvers(sw);
    const auto it = std::find(set.names().begin(), set.names().end(), "DPA1D");
    if (it == set.names().end()) die("sweep without DPA1D: " + sw.name);
    const auto h = static_cast<std::size_t>(it - set.names().begin());
    spec_of.push_back(set.specs()[h]);
    index_of.push_back(h);
    std::size_t k = 0;
    // Instance order mirrors campaign::SweepPlan's task expansion.
    if (sw.kind == campaign::SweepKind::Streamit) {
      for (const auto& ccr : campaign::streamit_ccrs()) {
        for (const auto& info : spg::streamit_table()) {
          const double c = ccr.second;
          jobs.push_back({s, [&info, c] { return spg::make_streamit(info, c); },
                          &results[s][k++]});
        }
      }
    } else {
      for (const double ccr : campaign::random_ccrs()) {
        for (const int y : sw.elevations) {
          for (std::size_t w = 0; w < sw.apps; ++w) {
            const auto seed =
                campaign::random_workload_seed(sw.seed_base, sw.n, y, ccr, w);
            const std::size_t n = sw.n;
            jobs.push_back({s,
                            [n, y, ccr, seed] {
                              util::Rng rng(seed);
                              spg::Spg g = spg::random_spg(n, y, rng);
                              g.rescale_ccr(ccr);
                              return g;
                            },
                            &results[s][k++]});
          }
        }
      }
    }
    if (k != results[s].size()) die("replay instance count differs: " + sw.name);
  }

  std::atomic<std::size_t> next{0};
  std::vector<Dpa1dReplay> part(threads);
  Workers pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.spawn([&, t] {
      Dpa1dReplay& r = part[t];
      for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
        const Job& job = jobs[j];
        const spg::Spg g = job.make();
        const auto& res = *job.result;
        const bool any = std::any_of(res.success.begin(), res.success.end(),
                                     [](std::uint8_t x) { return x != 0; });
        solve::SolveRequest req;
        req.spg = &g;
        req.platform = &platforms[job.sweep];
        for (const double T : visited_rungs(res.period, any)) {
          req.period = T;
          const double t0 = mono();
          const auto rep = solve::run(spec_of[job.sweep], req);
          const double dt = mono() - t0;
          ++r.calls;
          if (rep.result.success) {
            ++r.ok;
            r.ok_s += dt;
          } else if (rep.result.failure.find("budget") != std::string::npos) {
            ++r.budget;
            r.budget_s += dt;
          } else {
            ++r.infeasible;
            r.infeasible_s += dt;
          }
          if (T == res.period &&
              rep.result.success != (res.success[index_of[job.sweep]] != 0)) {
            ++r.mismatches;
          }
        }
      }
    });
  }
  pool.join_all();
  Dpa1dReplay sum;
  for (const auto& r : part) sum += r;
  return sum;
}

int cmd_grid(const Flags& f, double main_mono) {
  const auto threads = f.count("threads");
  auto spec = campaign::CampaignSpec::paper(f.count("apps"), f.count("apps150"),
                                            static_cast<int>(f.count("step")),
                                            static_cast<int>(f.count("step150")), "mesh");
  const std::string out = f.need("out");
  std::vector<campaign::SweepPlan> plans;
  plans.reserve(spec.sweeps.size());
  for (const auto& sweep : spec.sweeps) plans.emplace_back(sweep, "mesh");

  std::optional<obs::ScopedFiles> traced;
  if (f.has("trace")) traced.emplace(f.need("trace"), f.need("metrics"));

  const double cpu0 = cpu_self_s();
  const double t0 = mono();  // the first instance is dispatched right after
  if (f.has("setup-only")) {
    std::printf("{\"setup_s\":%s}\n", num(t0 - main_mono).c_str());
    return 0;
  }
  std::ostringstream sweeps_json;
  std::vector<std::vector<campaign::InstanceResult>> results;
  std::size_t instances = 0;
  for (const auto& plan : plans) {
    const double s0 = mono();
    {
      obs::Span span("bench.sweep");
      if (span.active()) span.detail("sweep", plan.spec().name);
      results.push_back(plan.run_all(threads));
    }
    const double s1 = mono();
    static_cast<void>(
        campaign::sweep_report(plan.spec(), plan.topology(), results.back())
            .write_json_file(out));
    instances += plan.instance_count();
    sweeps_json << (sweeps_json.tellp() > 0 ? "," : "") << "{\"name\":"
                << quote(plan.spec().name) << ",\"seconds\":" << num(s1 - s0)
                << ",\"ready_s\":" << num(mono() - t0)
                << ",\"instances\":" << plan.instance_count() << "}";
  }
  const double wall = mono() - t0;
  const double cpu = cpu_self_s() - cpu0;
  traced.reset();  // writes the trace and metrics files

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string replay = "null";
  if (f.has("replay-dpa1d")) {
    const auto r = replay_dpa1d(spec.sweeps, results, threads);
    replay = "{\"calls\":" + std::to_string(r.calls) + ",\"ok\":" + std::to_string(r.ok) +
             ",\"budget\":" + std::to_string(r.budget) +
             ",\"infeasible\":" + std::to_string(r.infeasible) +
             ",\"mismatches\":" + std::to_string(r.mismatches) + ",\"ok_s\":" + num(r.ok_s) +
             ",\"budget_s\":" + num(r.budget_s) +
             ",\"infeasible_s\":" + num(r.infeasible_s) + "}";
  }
  std::printf(
      "{\"setup_s\":%s,\"wall_s\":%s,\"cpu_s\":%s,\"peak_rss_kb\":%ld,"
      "\"instances\":%zu,\"threads\":%zu,\"sweeps\":[%s],\"dpa1d_replay\":%s}\n",
      num(t0 - main_mono).c_str(), num(wall).c_str(), num(cpu).c_str(), ru.ru_maxrss, instances,
      threads, sweeps_json.str().c_str(), replay.c_str());
  return 0;
}

// --------------------------------------------------------------- serve ----

/// Blocking line reader over a file descriptor.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// Next line without its newline; false on EOF or error.
  bool next(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > (1U << 16)) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) die(std::string("write to daemon failed: ") + std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) die("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/response exchange on a connected descriptor pair.
std::string exchange(int wfd, LineReader& rd, const std::string& line) {
  write_all(wfd, line + "\n");
  std::string resp;
  if (!rd.next(resp)) die("daemon closed the stream");
  return resp;
}

struct Daemon {
  pid_t pid = -1;
  int in_fd = -1;   // our end of its stdin (stream transport only)
  int out_fd = -1;  // our end of its stdout (stream transport only)
};

Daemon spawn_daemon(const std::vector<std::string>& args, bool stream,
                    const std::string& stderr_path) {
  Daemon d;
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (stream) {
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
      die("pipe() failed");
    }
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&fa, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = posix_spawn(&d.pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) die("cannot spawn " + args[0] + ": " + std::strerror(rc));
  if (stream) {
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    d.in_fd = in_pipe[1];
    d.out_fd = out_pipe[0];
  }
  return d;
}

/// SIGTERM the daemon and reap it; returns its exit code (-1 if signalled).
int stop_daemon(Daemon& d) {
  ::kill(d.pid, SIGTERM);
  int status = 0;
  while (::waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (d.in_fd >= 0) ::close(d.in_fd);
  if (d.out_fd >= 0) ::close(d.out_fd);
  d.in_fd = d.out_fd = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Cache counters of an in-band stats answer.
struct CacheStats {
  double hits = 0, misses = 0, evictions = 0;
};

CacheStats cache_of(const std::string& stats_frame) {
  const auto doc = util::parse_json(stats_frame);
  const auto& c = doc.at("stats").at("cache");
  return {c.at("hits").as_number("hits"), c.at("misses").as_number("misses"),
          c.at("evictions").as_number("evictions")};
}

double refused_of(const std::string& stats_out_path) {
  std::ifstream f(stats_out_path);
  if (!f) return -1;
  std::stringstream ss;
  ss << f.rdbuf();
  return util::parse_json(ss.str())
      .at("summary")
      .at("shutdown_refused")
      .as_number("shutdown_refused");
}

const std::string kStats = R"({"id":"stats","stats":true})";

/// Outcome of one answered request, classified after the timed phase.
struct Answer {
  std::size_t problem = 0;
  double due = 0, recv = 0;
  std::string frame;
};

int cmd_serve(const Flags& f) {
  const std::string mode = f.need("mode");
  if (mode != "hits" && mode != "misses") die("--mode must be hits or misses");
  const bool hits = mode == "hits";
  const std::string dir = f.need("dir");
  const std::string daemon = f.need("daemon");
  const auto timed = read_requests(f.need("timed"));
  const auto problems = read_requests(f.need("problems"));
  const auto setups = f.count("setups");
  const std::size_t conns = hits ? f.count("conns") : 1;
  const std::string sock = dir + "/serve.sock";
  const std::string stats_out = dir + "/stats_final.json";

  std::vector<std::string> args = {daemon, "--threads=2"};
  if (hits) {
    args.push_back("--listen=" + sock);
  } else {
    args.push_back("--cache=" + f.need("cache"));
  }
  args.push_back("--stats-out=" + stats_out);

  std::vector<double> setup_s;
  std::vector<std::string> warm(problems.size());
  std::size_t warm_errors = 0;
  Daemon d;
  std::vector<int> fds;  // hits: one connected socket per connection
  std::vector<LineReader> readers;
  for (std::size_t s = 0; s < setups; ++s) {
    auto a = args;
    if (s + 1 == setups && f.has("trace")) {
      a.push_back("--trace=" + dir + "/trace.json");
      a.push_back("--metrics=" + dir + "/metrics.json");
    }
    const double t_spawn = mono();
    d = spawn_daemon(a, !hits, dir + "/daemon.log");
    fds.clear();
    readers.clear();
    if (hits) {
      for (std::size_t c = 0; c < conns; ++c) {
        int fd = -1;
        for (int tries = 0; (fd = connect_unix(sock)) < 0; ++tries) {
          if (tries > 20000) die("daemon never accepted on " + sock);
          ::usleep(500);
        }
        fds.push_back(fd);
      }
      readers.reserve(conns);
      for (const int fd : fds) readers.emplace_back(fd);
      exchange(fds[0], readers[0], kStats);
      // Warm-up: every distinct problem solved once, each connection a
      // closed loop over its share.
      Workers pool;
      std::atomic<std::size_t> bad{0};
      for (std::size_t c = 0; c < conns; ++c) {
        pool.spawn([&, c] {
          for (std::size_t i = c; i < problems.size(); i += conns) {
            const auto resp = exchange(fds[c], readers[c], problems[i].json);
            if (!member_is(resp, "status", "ok") || !member_is(resp, "cache", "miss")) {
              ++bad;
            }
            warm[i] = report_of(resp);
          }
        });
      }
      pool.join_all();
      warm_errors = bad.load();
    } else {
      readers.emplace_back(d.out_fd);
      exchange(d.in_fd, readers[0], kStats);
      warm_errors = 0;
      for (const auto& p : problems) {
        const auto resp = exchange(d.in_fd, readers[0], p.json);
        if (!member_is(resp, "status", "ok") || !member_is(resp, "cache", "miss")) {
          ++warm_errors;
        }
      }
    }
    setup_s.push_back(mono() - t_spawn);
    if (s + 1 < setups) {
      for (const int fd : fds) ::close(fd);
      if (stop_daemon(d) != 3) die("daemon did not exit 3 after a set-up pass");
    }
  }

  // ---- timed phase ----
  std::vector<Answer> answers(timed.size());
  std::vector<double> late_us;
  const auto stats_exchange = [&] {
    if (!hits) return exchange(d.in_fd, readers[0], kStats);
    const int fd = connect_unix(sock);
    if (fd < 0) die("stats connection refused");
    LineReader rd(fd);
    auto resp = exchange(fd, rd, kStats);
    ::close(fd);
    return resp;
  };
  const CacheStats before = cache_of(stats_exchange());
  const double cpu0 = cpu_of(d.pid);
  double start = 0;
  if (hits) {
    Workers pool;
    start = mono();
    for (std::size_t c = 0; c < conns; ++c) {
      pool.spawn([&, c] {
        for (std::size_t i = c; i < timed.size(); i += conns) {
          Answer& a = answers[i];
          a.problem = timed[i].problem;
          a.due = mono();
          write_all(fds[c], timed[i].json + "\n");
          if (!readers[c].next(a.frame)) return;  // closed: the rest go unanswered
          a.recv = mono();
        }
      });
    }
    pool.join_all();
  } else {
    const double rate = std::stod(f.need("rate"));
    start = mono() + 0.01;
    late_us.resize(timed.size());
    Workers writer;
    writer.spawn([&] {
      for (std::size_t i = 0; i < timed.size(); ++i) {
        const double due = start + static_cast<double>(i) / rate;
        sleep_until(due);
        late_us[i] = (mono() - due) * 1e6;
        write_all(d.in_fd, timed[i].json + "\n");
      }
    });
    for (std::size_t i = 0; i < timed.size(); ++i) {
      Answer& a = answers[i];
      a.problem = timed[i].problem;
      a.due = start + static_cast<double>(i) / rate;
      if (!readers[0].next(a.frame)) break;  // closed: the rest go unanswered
      a.recv = mono();
    }
    writer.join_all();
  }
  double end = start;
  std::size_t answered = 0;
  for (const auto& a : answers) {
    end = std::max(end, a.recv);
    answered += a.recv > 0 ? 1 : 0;
  }
  const double cpu = cpu_of(d.pid) - cpu0;
  const double hwm = hwm_kb(d.pid);
  const CacheStats after = cache_of(stats_exchange());
  for (const int fd : fds) ::close(fd);
  const int exit_code = stop_daemon(d);
  const double refused = refused_of(stats_out);

  // ---- classification ----
  std::size_t errors = 0, hit_frames = 0, mismatches = 0;
  std::ofstream lat(dir + "/lat.txt");
  std::ofstream raw;
  if (!hits) raw.open(dir + "/responses.jsonl");
  for (const auto& a : answers) {
    if (a.recv == 0) continue;  // unanswered
    double wall_us = -1;
    const bool ok = member_is(a.frame, "status", "ok");
    if (!ok) {
      ++errors;
    } else {
      const auto at = value_at(a.frame, "wall_us");
      if (at != std::string::npos) wall_us = std::stod(a.frame.substr(at));
      if (member_is(a.frame, "cache", "hit")) ++hit_frames;
      if (hits && report_of(a.frame) != warm[a.problem]) ++mismatches;
    }
    lat << num((a.recv - a.due) * 1e6) << ' ' << num(wall_us) << ' ' << (ok ? 1 : 0)
        << '\n';
    if (!hits) raw << a.frame << '\n';
  }
  std::ostringstream setups_json;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups_json << (i ? "," : "") << num(setup_s[i]);
  }
  const double lookups = (after.hits + after.misses) - (before.hits + before.misses);
  std::printf(
      "{\"mode\":%s,\"setup_s\":[%s],\"warm_errors\":%zu,\"attempted\":%zu,\"answered\":%zu,"
      "\"errors\":%zu,\"mismatches\":%zu,\"hit_frames\":%zu,\"wall_s\":%s,"
      "\"cpu_s\":%s,\"peak_rss_kb\":%s,\"exit_code\":%d,\"refused\":%s,"
      "\"cache_hits\":%s,\"cache_lookups\":%s,\"cache_evictions\":%s,"
      "\"late_us\":%s,\"answer_span_s\":%s}\n",
      quote(mode).c_str(), setups_json.str().c_str(), warm_errors, answers.size(), answered,
      errors,
      mismatches, hit_frames, num(end - start).c_str(), num(cpu).c_str(),
      num(hwm).c_str(), exit_code, num(refused).c_str(),
      num(after.hits - before.hits).c_str(), num(lookups).c_str(),
      num(after.evictions - before.evictions).c_str(), dist(late_us).c_str(),
      num(answers.empty() ? 0 : answers.back().recv - answers.front().recv).c_str());
  return 0;
}

// -------------------------------------------------------------- replay ----

double us_since(double t0) { return (mono() - t0) * 1e6; }

struct Timings {
  std::vector<double> parse_json, materialize, canonical, lookup, insert, render, evals;
  std::map<std::string, std::vector<double>> solve;  // by normalized solver spec
};

/// The miss path, in-process: solve with the daemon's key-derived seed,
/// then render the cacheable payload.
struct Solved {
  std::string payload;
  double solve_us = 0, render_us = 0;
  std::uint64_t evals = 0;
};

Solved solve_report(const serve::Request& req) {
  solve::SolveRequest sreq;
  sreq.spg = &req.spg;
  sreq.platform = &req.platform;
  sreq.period = req.period;
  sreq.seed = serve::fnv1a64(req.key);
  Solved out;
  double t0 = mono();
  const auto rep = solve::run(req.solver, sreq);
  out.solve_us = us_since(t0);
  t0 = mono();
  out.payload = serve::render_report(req, rep);
  out.render_us = us_since(t0);
  out.evals = rep.stats.evaluator_calls();
  return out;
}

/// One request through parse -> materialize -> canonicalize -> lookup
/// [-> solve -> render_report -> insert] -> render_ok, each call timed.
/// Returns the report payload served.
std::string timed_request(const std::string& line, serve::MemoCache& cache, Timings& t) {
  double t0 = mono();
  const auto doc = util::parse_json(line);
  t.parse_json.push_back(us_since(t0));
  t0 = mono();
  const auto req = serve::parse_request(doc);
  const double parse_us = us_since(t0);
  t0 = mono();
  const auto key = serve::canonical_key(req.spg, req.platform, req.solver, req.period);
  const double canon_us = us_since(t0);
  if (key != req.key) die("canonical_key disagrees with parse_request");
  t.canonical.push_back(canon_us);
  t.materialize.push_back(parse_us - canon_us);
  t0 = mono();
  auto cached = cache.lookup(req.key);
  t.lookup.push_back(us_since(t0));
  const bool hit = cached.has_value();
  double render_us = 0;
  std::string payload;
  if (hit) {
    payload = std::move(*cached);
    t.evals.push_back(0.0);
  } else {
    Solved s = solve_report(req);
    t.solve[req.solver].push_back(s.solve_us);
    t.evals.push_back(static_cast<double>(s.evals));
    render_us = s.render_us;
    t0 = mono();
    cache.insert(req.key, s.payload);
    t.insert.push_back(us_since(t0));
    payload = std::move(s.payload);
  }
  t0 = mono();
  const auto frame = serve::render_ok(req, payload, hit, 0, 0.0);
  t.render.push_back(render_us + us_since(t0));
  if (frame.empty()) die("render_ok produced nothing");
  return payload;
}

int cmd_replay(const Flags& f) {
  const std::string mode = f.need("mode");
  const bool hits = mode == "hits";
  const auto timed = read_requests(f.need("timed"));
  const std::size_t limit = f.has("limit") ? std::min(timed.size(), f.count("limit"))
                                            : timed.size();

  if (f.has("time")) {
    serve::MemoCache cache(f.count("cache"));
    Timings warm;  // the warm-up misses of serve_hits
    Timings t;
    std::size_t mismatches = 0;
    std::vector<std::string> expect;
    if (hits) {
      const auto problems = read_requests(f.need("problems"));
      for (const auto& p : problems) expect.push_back(timed_request(p.json, cache, warm));
      for (std::size_t i = 0; i < limit; ++i) {
        if (timed_request(timed[i].json, cache, t) != expect[timed[i].problem]) ++mismatches;
      }
    } else {
      for (std::size_t i = 0; i < limit; ++i) timed_request(timed[i].json, cache, t);
    }
    const auto stats = cache.stats();
    const Timings& solves = hits ? warm : t;
    std::ostringstream solve_json;
    for (const auto& [spec, v] : solves.solve) {
      solve_json << (solve_json.tellp() > 0 ? "," : "") << quote(spec) << ":" << dist(v);
    }
    std::printf(
        "{\"replayed\":%zu,\"mismatches\":%zu,\"parse_json_us\":%s,\"materialize_us\":%s,"
        "\"canonicalize_us\":%s,\"lookup_us\":%s,\"insert_us\":%s,\"render_us\":%s,"
        "\"evals\":%s,\"solve_us\":{%s},\"cache_hits\":%llu,\"cache_misses\":%llu}\n",
        limit, mismatches, dist(t.parse_json).c_str(), dist(t.materialize).c_str(),
        dist(t.canonical).c_str(), dist(t.lookup).c_str(), dist(t.insert).c_str(),
        dist(t.render).c_str(), dist(t.evals).c_str(), solve_json.str().c_str(),
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses));
    return 0;
  }

  // Check mode: recompute each report independently and compare it with
  // the daemon's answer for the same line.  Responses come in request
  // order, so unanswered requests are missing at the end.
  const auto responses = read_lines(f.need("responses"));
  if (responses.size() > timed.size()) die("more responses than requests");
  const std::size_t checked = std::min(limit, responses.size());
  const auto threads = f.count("threads");
  std::atomic<std::size_t> next{0}, mismatches{0}, failures{0};
  Workers pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.spawn([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < checked;) {
        try {
          const auto req = serve::parse_request(util::parse_json(timed[i].json));
          if (solve_report(req).payload != report_of(responses[i])) ++mismatches;
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  pool.join_all();
  std::printf("{\"checked\":%zu,\"mismatches\":%zu,\"failures\":%zu}\n", checked,
              mismatches.load(), failures.load());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const double main_mono = mono();
  // A daemon that dies mid-run must surface as a failed write, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) die("usage: perfbench_probe grid|serve|replay --flags...");
  const std::string cmd = argv[1];
  const Flags f(argc, argv, 2);
  if (cmd == "grid") return cmd_grid(f, main_mono);
  if (cmd == "serve") return cmd_serve(f);
  if (cmd == "replay") return cmd_replay(f);
  die("unknown subcommand: " + cmd);
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
  return 1;
}
