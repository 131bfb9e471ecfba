// kvbench: load generator and checker of the served end-to-end benchmark.
//
//   kvbench --workload <warm-ed|warm-dtw|ingest-cold|federated> --seed <n>
//           --seconds <s> --trace <0|1> --cli <kvmatch_cli> --work <dir>
//           [--spans <file>]
//
// Starts the real `kvmatch_cli serve` (and, for `federated`, two shards
// behind `kvmatch_cli coord`) with their shipped defaults on an empty
// FileKvStore, creates the workload's catalog through CREATE frames, then
// drives closed-loop traffic over the wire protocol from this one process
// (at most four connections, one outstanding request each). Answers are
// checked against src/baseline; the last stdout line is the result object
// {"correct","attempted","failed","metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set: the same
// requests then carry collect_trace, and the bench re-runs a sample of
// them through the library in-process to time each module's calls.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force.h"
#include "baseline/ucr_suite.h"
#include "bench_core.h"
#include "coord/shard_map.h"
#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/simd/kernels.h"
#include "match/top_k.h"
#include "net/client.h"
#include "net/protocol.h"
#include "service/catalog.h"
#include "storage/file_kvstore.h"
#include "ts/generator.h"
#include "ts/series_store.h"
#include "ts/stats_oracle.h"

namespace fs = std::filesystem;
namespace pb = perfbench;
using namespace kvmatch;
using Clock = std::chrono::steady_clock;
using net::WireQueryRequest;

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Total length covered by the union of [start, end) intervals.
double UnionMs(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = -1;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = a;
      cur_e = b;
    } else {
      cur_e = std::max(cur_e, b);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

/// Every server process still running, so Die() can reap them: exit()
/// skips the destructors of the ServerProcess objects on the stack.
std::mutex g_live_mu;
std::vector<pid_t> g_live;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "kvbench: %s\n", what.c_str());
  std::lock_guard<std::mutex> lock(g_live_mu);
  for (pid_t pid : g_live) {
    ::kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
  std::_Exit(2);
}

void Log(const std::string& what) {
  std::fprintf(stderr, "kvbench: %s\n", what.c_str());
}

constexpr double kTargetSelectivity = 1e-4;
constexpr size_t kChunk = 1000;  // points per APPEND frame

// ------------------------------------------------------------ processes

/// One spawned server process (serve or coord). Its stdout goes to a log
/// file, which is polled for the line announcing the bound port. The
/// destructor kills and reaps it, so no exit path leaves one behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, std::vector<std::string> args,
                const std::string& log_path) {
    args.insert(args.begin(), cli);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, cli.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) Die("cannot spawn " + cli + ": " + std::strerror(rc));
    log_path_ = log_path;
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.push_back(pid_);
  }
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for "... on <host>:<port>" in the log and returns the port.
  int WaitPort(double timeout_s = 120.0) {
    const auto until = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < until) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        const size_t on = line.find(" on ");
        if (on == std::string::npos) continue;
        const size_t colon = line.find(':', on);
        if (colon == std::string::npos) continue;
        return std::atoi(line.c_str() + colon + 1);
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        Forget();
        Die("server exited during start-up; see " + log_path_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Die("server did not announce its port; see " + log_path_);
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), escalating to SIGKILL after `grace_s`.
  void Stop(double grace_s = 20.0) {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto until = Clock::now() + std::chrono::duration<double>(grace_s);
    int status = 0;
    while (Clock::now() < until) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        Forget();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
  }

  /// SIGKILL and reap: the crash the durability check simulates.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    Forget();
  }

  /// Peak resident set (VmHWM) in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    return 0.0;
  }

  /// rchar / wchar from /proc/<pid>/io: bytes moved through read/write
  /// syscalls (the page cache absorbs the device counters in a sandbox).
  std::pair<double, double> IoBytes() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/io");
    std::string key;
    double value = 0, rchar = 0, wchar = 0;
    while (in >> key >> value) {
      if (key == "rchar:") rchar = value;
      if (key == "wchar:") wchar = value;
    }
    return {rchar, wchar};
  }

 private:
  void Forget() {
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.erase(std::remove(g_live.begin(), g_live.end(), pid_),
                 g_live.end());
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::string log_path_;
};

int PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Die("cannot pick a free port");
  }
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ------------------------------------------------------------ bench spans

/// Bench-side spans (name, start, end, parent, request id), kept in memory
/// and written once at exit. Self time = duration minus the union of the
/// children's intervals.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0, end_ms = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int64_t Add(const std::string& name, Clock::time_point t0,
              Clock::time_point t1, int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, MsBetween(origin_, t0), MsBetween(origin_, t1),
                      parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<double> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.start_ms, s.end_ms});
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      for (auto& [s, e] : kids[i]) {
        s = std::max(s, spans_[i].start_ms);
        e = std::min(e, spans_[i].end_ms);
      }
      self[i] = spans_[i].end_ms - spans_[i].start_ms - UnionMs(kids[i]);
    }
    return self;
  }

  void Write(const std::string& path, const std::string& header_json) const {
    const auto self = SelfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"meta\":" << header_json << ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ms\":" << pb::JsonNumber(s.start_ms)
          << ",\"end_ms\":" << pb::JsonNumber(s.end_ms)
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"self_ms\":" << pb::JsonNumber(self[i]) << "}";
    }
    out << "]";
    for (const auto& [k, v] : extra_) out << ",\"" << k << "\":" << v;
    out << "}\n";
  }

  /// Raw JSON sections appended to the span file (server traces, /metrics).
  void AddSection(const std::string& key, std::string json) {
    std::lock_guard<std::mutex> lock(mu_);
    extra_[key] = std::move(json);
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, std::string> extra_;
};

// ------------------------------------------------------------ timing store

/// Bench-side KvStore wrapper: records every Flush interval and the time
/// spent in Scan (creation plus every Next). Single-threaded use.
class TimingKvStore : public KvStore {
 public:
  explicit TimingKvStore(KvStore* inner) : inner_(inner) {}

  Status Put(std::string_view k, std::string_view v) override {
    return inner_->Put(k, v);
  }
  Status Get(std::string_view k, std::string* v) const override {
    return inner_->Get(k, v);
  }
  Status Delete(std::string_view k) override { return inner_->Delete(k); }
  Status DeleteRange(std::string_view a, std::string_view b) override {
    return inner_->DeleteRange(a, b);
  }
  Status Apply(const WriteBatch& batch) override {
    return inner_->Apply(batch);
  }
  size_t ApproximateCount() const override {
    return inner_->ApproximateCount();
  }
  Status Flush() override {
    const auto t0 = Clock::now();
    Status st = inner_->Flush();
    flushes.push_back({t0, Clock::now()});
    return st;
  }

  class TimedIter : public ScanIterator {
   public:
    TimedIter(std::unique_ptr<ScanIterator> it, const TimingKvStore* owner,
              double ms)
        : it_(std::move(it)), owner_(owner), ms_(ms) {}
    ~TimedIter() override { owner_->scan_ms_total += ms_; }
    bool Valid() const override { return it_->Valid(); }
    void Next() override {
      const auto t0 = Clock::now();
      it_->Next();
      ms_ += MsBetween(t0, Clock::now());
    }
    std::string_view key() const override { return it_->key(); }
    std::string_view value() const override { return it_->value(); }
    Status status() const override { return it_->status(); }

   private:
    std::unique_ptr<ScanIterator> it_;
    const TimingKvStore* owner_;
    double ms_;
  };

  std::unique_ptr<ScanIterator> Scan(std::string_view a,
                                     std::string_view b) const override {
    const auto t0 = Clock::now();
    auto it = inner_->Scan(a, b);
    return std::make_unique<TimedIter>(std::move(it), this,
                                       MsBetween(t0, Clock::now()));
  }

  std::vector<std::pair<Clock::time_point, Clock::time_point>> flushes;
  mutable double scan_ms_total = 0;

 private:
  KvStore* inner_;
};

// ------------------------------------------------------------ workloads

struct Cell {
  QueryType type;
  size_t m;
  double alpha = 1.0;
  double beta_prime = 0.0;  // β as a percentage of the series' value range
  size_t top_k = 0;         // > 0: global top-k instead of an ε-query
};

struct Spec {
  std::string name;
  size_t num_series = 4;
  size_t series_points = 1'000'000;
  size_t hot_points = 0;      // > 0: an extra appended-to `hot` series
  std::vector<Cell> cells;
  int query_conns = 4;
  bool concurrent_appender = false;
  bool federated = false;
  int setup_reps = 3;
  int checks_per_cell = 2;    // answers compared to the baseline per run
  // Calibrated query bases per cell. Query cost is heavy-tailed across
  // bases; enough of them keep a run's p99 from resting on one or two.
  int bases_per_cell = 64;
};

std::vector<Cell> EdCells() {
  return {{QueryType::kRsmEd, 256},
          {QueryType::kCnsmEd, 256, 1.5, 5.0},
          {QueryType::kRsmEd, 1024},
          {QueryType::kCnsmEd, 1024, 1.5, 5.0}};
}

Spec MakeSpec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "warm-ed") {
    s.cells = EdCells();
    s.bases_per_cell = 128;
  } else if (name == "warm-dtw") {
    // 100k-point series: at 1M points these queries take 0.3 s at the
    // median and 2.6 s at p99, so a run could not reach 1000 queries
    // within the benchmark's time budget. Sixteen of them, because DTW
    // cost depends strongly on the data and four short series left the
    // run-to-run spread of query_p99_ms above 0.4 across seeds.
    s.num_series = 16;
    s.series_points = 100'000;
    s.bases_per_cell = 256;
    s.cells = {{QueryType::kRsmDtw, 256},
               {QueryType::kCnsmDtw, 256, 1.5, 5.0},
               {QueryType::kCnsmDtw, 256, 2.0, 10.0}};
  } else if (name == "ingest-cold") {
    s.num_series = 12;
    s.hot_points = 100'000;
    s.cells = EdCells();
    s.query_conns = 3;
    s.concurrent_appender = true;
    s.setup_reps = 2;
  } else if (name == "federated") {
    // Glob ε-queries plus global top-10 over one series per shard, |Q| =
    // 256 only: query cost depends on both the catalog and the drawn bases,
    // and 256 bases per cell (each timed about once) kept seed-to-seed
    // spread within bounds where 128 bases over twice the cells did not.
    const auto ed = EdCells();
    s.cells = {ed[0], ed[1], ed[0], ed[1]};
    s.cells[2].top_k = s.cells[3].top_k = 10;
    s.checks_per_cell = 2;
    s.federated = true;
    s.bases_per_cell = 256;
    s.setup_reps = 2;  // calibration takes most of the run's fixed time
  } else {
    Die("unknown workload '" + name + "'");
  }
  return s;
}

struct SeriesData {
  std::string name;
  TimeSeries ts;
  double range = 0;
};

struct Base {
  size_t cell = 0;
  size_t series = 0;  // the series the query was drawn from
  size_t source = 0;  // ... and the offset
  std::vector<double> q;
  QueryParams params;
  double target_matches = 0;  // selectivity target × possible offsets
  double offsets = 0;
};

/// Runs `fn(i)` for i in [0, n) on up to four threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t t = std::min<size_t>(4, std::max<size_t>(1, n));
  for (size_t w = 0; w < t; ++w) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : threads) th.join();
}

struct Inputs {
  std::vector<SeriesData> series;  // queried series (+ hot last)
  std::vector<Base> bases;
  std::vector<double> append_tail;  // values for APPEND frames
  size_t redrawn = 0;  // query draws replaced because no ε reached the target
};

/// Calibrates ε for `base` to the target selectivity k: the midpoint of
/// the first gap between consecutive distances at rank >= k (repeated
/// pattern instances tie exactly), so no distance sits on the threshold.
/// Distances come from the UCR Suite scan of src/baseline. Returns false —
/// never saturates silently — when fewer than 2k+1 offsets satisfy the
/// query's constraints or no gap exists up to rank 2k: no ε reaches the
/// target for that query.
bool Calibrate(const std::vector<SeriesData>& series,
               const std::vector<const PrefixStats*>& prefixes,
               const std::vector<uint32_t>& targets, Base* base) {
  const size_t k = static_cast<size_t>(
      std::max(1.0, std::round(kTargetSelectivity * base->offsets)));
  base->target_matches = static_cast<double>(k);
  const size_t keep = 2 * k + 1;
  QueryParams p = base->params;
  p.epsilon = std::numeric_limits<double>::infinity();
  // Lowers the scan bound to the rank-keep distance found so far, so later
  // scans abandon early and still return every distance up to rank keep.
  auto scan = [&](const TimeSeries& x, const PrefixStats& prefix,
                  std::vector<double>* d) {
    for (const auto& hit : UcrSuite(x, prefix).Match(base->q, p)) {
      d->push_back(hit.distance);
    }
    if (d->size() >= keep) {
      std::nth_element(d->begin(), d->begin() + (keep - 1), d->end());
      p.epsilon = std::min(p.epsilon, (*d)[keep - 1] * (1 + 1e-6));
    }
  };
  // Regions around the query's source hold near matches: they set a first
  // bound cheaply. Their distances are a subset of the full scan's, so
  // they only bound it.
  const auto& own = series[base->series].ts.values();
  for (const size_t radius : {keep, 32 * keep}) {
    const size_t lo = base->source > radius ? base->source - radius : 0;
    const size_t hi =
        std::min(own.size(), base->source + radius + base->q.size());
    const TimeSeries region(
        std::vector<double>(own.begin() + lo, own.begin() + hi));
    std::vector<double> unused;
    scan(region, PrefixStats(region), &unused);
  }
  std::vector<uint32_t> order = {static_cast<uint32_t>(base->series)};
  for (uint32_t s : targets) {
    if (s != base->series) order.push_back(s);
  }
  std::vector<double> d;
  for (uint32_t s : order) scan(series[s].ts, *prefixes[s], &d);
  std::erase_if(d, [&](double v) { return v > p.epsilon; });
  if (d.size() < keep) return false;
  std::sort(d.begin(), d.end());
  for (size_t j = k; j < keep; ++j) {
    if (d[j] > d[j - 1] * (1 + 1e-6) + 1e-12) {
      base->params.epsilon = 0.5 * (d[j - 1] + d[j]);
      return true;
    }
  }
  return false;
}

/// The series a base's requests run over: its own, or for `federated`
/// every series its glob ("x*" / "y*") matches.
std::vector<uint32_t> GlobTargets(const Spec& spec, const Inputs& in,
                                  const Base& base) {
  if (!spec.federated) return {static_cast<uint32_t>(base.series)};
  std::vector<uint32_t> out;
  for (uint32_t s = 0; s < in.series.size(); ++s) {
    if (in.series[s].name[0] == in.series[base.series].name[0]) {
      out.push_back(s);
    }
  }
  return out;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  const auto t0 = Clock::now();
  in.series.resize(spec.num_series + (spec.hot_points > 0 ? 1 : 0));
  std::vector<std::string> names;
  if (spec.federated) {
    // Series "x.." and "y..", one of each on either shard (names picked by
    // the assignment hash), so the glob "x*" or "y*" fans out to both
    // shards while covering half the data.
    for (const char letter : {'x', 'y'}) {
      for (uint64_t shard = 0; shard < 2; ++shard) {
        for (int i = 0;; ++i) {
          const std::string n = letter + std::to_string(i);
          if (coord::Fnv1a64(n) % 2 == shard) {
            names.push_back(n);
            break;
          }
        }
      }
    }
  } else {
    for (size_t i = 0; i < spec.num_series; ++i) {
      names.push_back((spec.hot_points ? "b" : "s") + std::to_string(i));
    }
  }
  if (spec.hot_points) names.push_back("hot");
  ParallelFor(in.series.size(), [&](size_t i) {
    const size_t n = (spec.hot_points && i == spec.num_series)
                         ? spec.hot_points
                         : spec.series_points;
    // Each series concatenates independently generated pieces, as the UCR
    // archive concatenates datasets: one generator walk over 1M points
    // drifts slowly enough that two seeds' catalogs differed by 40% in
    // query cost.
    constexpr size_t kPieces = 16;
    std::vector<double> values;
    values.reserve(n);
    for (size_t p = 0; p < kPieces; ++p) {
      Rng rng(seed * 1'000'003 + i * kPieces + p);
      const size_t len = n / kPieces + (p < n % kPieces ? 1 : 0);
      const auto piece = GenerateUcrLike(len, &rng);
      values.insert(values.end(), piece.values().begin(), piece.values().end());
    }
    in.series[i].name = names[i];
    in.series[i].ts = TimeSeries(std::move(values));
    const MinMax mm = ComputeMinMax(in.series[i].ts.values());
    in.series[i].range = mm.max - mm.min;
  });
  {
    Rng rng(seed * 1'000'003 + 999);
    in.append_tail = GenerateUcrLike(400'000, &rng).values();
  }

  // Query bases: each cell gets bases drawn from every queried series in
  // turn (the hot series included), then calibrated in parallel.
  const size_t queried = in.series.size();
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const Cell& cell = spec.cells[c];
    for (int b = 0; b < spec.bases_per_cell; ++b) {
      Base base;
      base.cell = c;
      base.series = static_cast<size_t>(b) % queried;
      base.params.type = cell.type;
      base.params.alpha = cell.alpha;
      base.params.beta = in.series[base.series].range * cell.beta_prime / 100;
      base.params.rho = IsDtw(cell.type) ? cell.m / 20 : 0;
      for (uint32_t s : GlobTargets(spec, in, base)) {
        base.offsets += static_cast<double>(in.series[s].ts.size() - cell.m + 1);
      }
      in.bases.push_back(std::move(base));
    }
  }
  std::vector<std::unique_ptr<PrefixStats>> owned(in.series.size());
  std::vector<const PrefixStats*> prefixes(in.series.size());
  ParallelFor(in.series.size(), [&](size_t i) {
    owned[i] = std::make_unique<PrefixStats>(in.series[i].ts);
    prefixes[i] = owned[i].get();
  });
  // Each base is drawn from its own stream, so parallel calibration stays
  // deterministic. A draw no ε can calibrate is replaced, never timed.
  std::atomic<size_t> redrawn{0};
  ParallelFor(in.bases.size(), [&](size_t i) {
    Base& b = in.bases[i];
    const size_t m = spec.cells[b.cell].m;
    const TimeSeries& x = in.series[b.series].ts;
    Rng rng(seed * 7'919 + i);
    for (int attempt = 0;; ++attempt) {
      if (attempt == 16) Die("no calibratable query after 16 draws");
      b.source = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(x.size() - m)));
      b.q = ExtractQuery(x, b.source, m, 0.05, &rng);
      if (spec.cells[b.cell].top_k > 0 ||
          Calibrate(in.series, prefixes, GlobTargets(spec, in, b), &b)) {
        break;
      }
      ++redrawn;
    }
  });
  in.redrawn = redrawn.load();
  Log("inputs: " + std::to_string(in.series.size()) + " series, " +
      std::to_string(in.bases.size()) + " calibrated bases in " +
      std::to_string(MsBetween(t0, Clock::now()) / 1000) + " s");
  return in;
}

/// The i-th timed request: cells round-robin, bases round-robin within a
/// cell, each request a fresh perturbation of its base (so no request
/// repeats within a run).
struct Request {
  size_t index = 0;
  size_t base = 0;
  WireQueryRequest wire;
};

Request MakeRequest(const Spec& spec, const Inputs& in, uint64_t seed,
                    size_t i, bool trace) {
  const size_t cells = spec.cells.size();
  const size_t per_cell = in.bases.size() / cells;
  const size_t cell = i % cells;
  const size_t b = cell * per_cell + (i / cells) % per_cell;
  const Base& base = in.bases[b];
  Request r;
  r.index = i;
  r.base = b;
  Rng rng(seed * 1'000'033 + i);
  QueryRequest& q = r.wire.request;
  q.series = in.series[base.series].name;
  if (spec.federated) q.series = q.series.substr(0, 1) + "*";
  q.query = base.q;
  for (double& v : q.query) v += rng.Gaussian(0.0, 0.005);
  q.params = base.params;
  q.top_k = spec.cells[cell].top_k;
  q.collect_trace = trace;
  return r;
}

// ------------------------------------------------------------ cluster

struct Cluster {
  std::vector<std::unique_ptr<ServerProcess>> servers;  // shards, then coord
  std::vector<std::string> stores;
  std::vector<int> shard_ports;
  int port = 0;  // where clients connect (serve, or coord)
  std::vector<std::string> serve_args;  // recorded for the run metadata

  void Stop() {
    for (auto it = servers.rbegin(); it != servers.rend(); ++it) (*it)->Stop();
  }
  double PeakRssMb() const {
    double total = 0;
    for (const auto& s : servers) total += s->PeakRssMb();
    return total;
  }
  std::pair<double, double> IoBytes() const {
    double r = 0, w = 0;
    for (const auto& s : servers) {
      auto [sr, sw] = s->IoBytes();
      r += sr;
      w += sw;
    }
    return {r, w};
  }
  uint64_t StoreBytes() const {
    uint64_t total = 0;
    for (const auto& s : stores) total += DirBytes(fs::path(s).parent_path());
    return total;
  }
};

std::unique_ptr<ServerProcess> StartServe(const std::string& cli,
                                          const std::string& dir,
                                          std::vector<std::string> extra,
                                          std::vector<std::string>* recorded) {
  fs::create_directories(dir);
  std::vector<std::string> args = {"serve", "--store", dir + "/store.kvm"};
  args.insert(args.end(), extra.begin(), extra.end());
  if (recorded) *recorded = args;
  return std::make_unique<ServerProcess>(cli, args, dir + "/serve.log");
}

Cluster StartCluster(const Spec& spec, const std::string& cli,
                     const std::string& dir) {
  Cluster c;
  if (!spec.federated) {
    c.servers.push_back(StartServe(cli, dir + "/serve", {"--port", "0"},
                                   &c.serve_args));
    c.stores.push_back(dir + "/serve/store.kvm");
    c.port = c.servers[0]->WaitPort();
    return c;
  }
  fs::create_directories(dir);
  const std::string map_path = dir + "/shards.map";
  {
    std::ofstream map(map_path);
    for (int s = 0; s < 2; ++s) {
      c.shard_ports.push_back(PickFreePort());
      map << "shard " << s << " 127.0.0.1 " << c.shard_ports[s] << "\n";
    }
  }
  for (int s = 0; s < 2; ++s) {
    const std::string sd = dir + "/shard" + std::to_string(s);
    c.servers.push_back(StartServe(
        cli, sd,
        {"--port", std::to_string(c.shard_ports[s]), "--shard-map", map_path,
         "--shard-id", std::to_string(s)},
        &c.serve_args));
    c.stores.push_back(sd + "/store.kvm");
  }
  for (auto& s : c.servers) s->WaitPort();
  c.servers.push_back(std::make_unique<ServerProcess>(
      cli, std::vector<std::string>{"coord", "--shard-map", map_path,
                                    "--port", "0"},
      dir + "/coord.log"));
  c.port = c.servers.back()->WaitPort();
  return c;
}

std::unique_ptr<net::Client> Connect(int port) {
  auto c = net::Client::Connect("127.0.0.1", port);
  if (!c.ok()) Die("connect: " + c.status().ToString());
  return std::move(c).value();
}

/// Creates every series through one CREATE frame each and answers one
/// query: the end of set-up.
void CreateCatalog(const Inputs& in, int port, const Spec& spec,
                   uint64_t seed) {
  auto client = Connect(port);
  for (const auto& s : in.series) {
    auto ack = client->CreateSeries(s.name, s.ts.values());
    if (!ack.ok()) Die("CREATE " + s.name + ": " + ack.status().ToString());
  }
  Request r = MakeRequest(spec, in, seed ^ 0x5e7u, 0, false);
  r.wire.request.top_k = 0;
  Status st;
  if (spec.federated) {
    auto resp = client->FederatedQuery(r.wire);
    st = resp.ok() ? resp->status : resp.status();
  } else {
    auto resp = client->Query(r.wire.request);
    st = resp.ok() ? resp->status : resp.status();
  }
  if (!st.ok()) Die("first query: " + st.ToString());
}

// ------------------------------------------------------------ load

struct QueryRecord {
  size_t index = 0;
  size_t base = 0;
  pb::Outcome outcome = pb::Outcome::kOk;
  double latency_ms = 0;
  double end_s = 0;  // completion, seconds into the timed window
  double server_ms = 0;
  size_t matches = 0;
  uint32_t shards = 0;
  MatchStats stats;
  std::shared_ptr<QueryTrace> trace;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  double encode_ms = 0;  // protocol encode of this response, bench-side
  bool traced = false;
  // Length of the appended-to series acknowledged before the send: every
  // window inside it was visible to this request.
  uint64_t settled_length = 0;
  std::vector<MatchResult> answer;
  std::vector<SeriesMatch> tagged;  // federated answers, series-tagged
};

struct AppendRecord {
  double latency_ms = 0;
  pb::Outcome outcome = pb::Outcome::kOk;
  uint64_t offset = 0;  // where the chunk landed
  size_t tail_pos = 0;  // chunk's position in Inputs::append_tail
};

size_t RequestBytes(const WireQueryRequest& w) {
  std::string body;
  net::EncodeQueryRequestBody(w, &body);
  return body.size() + net::kFrameHeaderBytes + net::kPayloadPrologueBytes;
}

QueryRecord RunOne(net::Client* client, const Spec& spec, Request& r) {
  QueryRecord rec;
  rec.index = r.index;
  rec.base = r.base;
  rec.traced = r.wire.request.collect_trace;
  rec.request_bytes = RequestBytes(r.wire);
  const auto t0 = Clock::now();
  if (spec.federated) {
    auto resp = client->FederatedQuery(r.wire);
    rec.latency_ms = MsBetween(t0, Clock::now());
    if (!resp.ok()) {
      rec.outcome = pb::ClassifyStatus(resp.status(), false);
      return rec;
    }
    rec.outcome = pb::ClassifyStatus(resp->status, true);
    if (rec.outcome == pb::Outcome::kOk && resp->partial()) {
      rec.outcome = pb::Outcome::kError;
    }
    rec.server_ms = resp->latency_ms;
    rec.stats = resp->stats;
    rec.shards = resp->shards_ok;
    rec.trace = resp->trace;
    for (const auto& g : resp->groups) {
      rec.matches += g.matches.size();
      for (const auto& m : g.matches) rec.tagged.push_back(SeriesMatch{g.series, m});
    }
    std::string body;
    const auto e0 = Clock::now();
    net::EncodeFederatedResponseBody(*resp, &body);
    rec.encode_ms = MsBetween(e0, Clock::now());
    rec.response_bytes = body.size() + net::kFrameHeaderBytes +
                         net::kPayloadPrologueBytes;
    return rec;
  }
  auto resp = client->Query(r.wire.request);
  rec.latency_ms = MsBetween(t0, Clock::now());
  if (!resp.ok()) {
    rec.outcome = pb::ClassifyStatus(resp.status(), false);
    return rec;
  }
  rec.outcome = pb::ClassifyStatus(resp->status, true);
  rec.server_ms = resp->latency_ms;
  rec.stats = resp->stats;
  rec.matches = resp->matches.size();
  rec.trace = resp->trace;
  std::string body;
  const auto e0 = Clock::now();
  net::EncodeQueryResponseBody(*resp, &body);
  rec.encode_ms = MsBetween(e0, Clock::now());
  rec.response_bytes =
      body.size() + net::kFrameHeaderBytes + net::kPayloadPrologueBytes;
  rec.answer = std::move(resp->matches);
  return rec;
}

/// Appends 1000-point chunks of Inputs::append_tail to `series`, one
/// outstanding APPEND at a time, until `until` has passed and at least
/// `min_count` chunks have been sent. Each ack must report the grown length,
/// which is published in `acked_length`. The last kReservedChunks chunks are
/// left for the in-process replay.
constexpr size_t kReservedChunks = 8;
std::vector<AppendRecord> AppendLoop(const Inputs& in, int port,
                                     const std::string& series,
                                     uint64_t base_length,
                                     Clock::time_point until,
                                     size_t min_count, SpanLog* spans,
                                     std::atomic<uint64_t>* acked_length) {
  auto client = Connect(port);
  std::vector<AppendRecord> out;
  uint64_t length = base_length;
  const size_t end = in.append_tail.size() - kReservedChunks * kChunk;
  for (size_t pos = 0; (out.size() < min_count || Clock::now() < until) &&
                       pos + kChunk <= end;
       pos += kChunk) {
    std::span<const double> chunk(in.append_tail.data() + pos, kChunk);
    const auto t0 = Clock::now();
    auto ack = client->AppendSeries(series, chunk);
    const auto t1 = Clock::now();
    spans->Add("client.append", t0, t1, -1, pos / kChunk);
    AppendRecord rec;
    rec.latency_ms = MsBetween(t0, t1);
    rec.tail_pos = pos;
    rec.offset = length;
    if (!ack.ok()) {
      const bool transport = ack.status().IsIOError();
      rec.outcome = pb::ClassifyStatus(ack.status(), !transport);
      if (transport) client = Connect(port);
    } else if (ack->length != length + kChunk) {
      rec.outcome = pb::Outcome::kWrongAnswer;
    } else {
      length = ack->length;
      acked_length->store(length);
    }
    out.push_back(rec);
  }
  return out;
}

struct LoadResult {
  std::vector<QueryRecord> queries;
  std::vector<AppendRecord> appends;
  double query_window_s = 0;  // until the last query loop ended
  double window_s = 0;        // until the appender ended, too
};

/// Closed loop: `spec.query_conns` connections with one outstanding query
/// each (so the server queue can never overflow), plus the appender for
/// ingest-cold. In trace mode every other request carries collect_trace,
/// which gives an interleaved traced/untraced A/B within one window.
LoadResult RunLoad(const Spec& spec, const Inputs& in, uint64_t seed,
                   int port, double seconds, bool trace, bool appender,
                   SpanLog* spans, const std::string& append_series,
                   uint64_t append_base) {
  LoadResult out;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> acked_length{append_base};
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  Clock::time_point queries_end = start;
  const Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.query_conns; ++c) {
    threads.emplace_back([&] {
      auto client = Connect(port);
      std::vector<QueryRecord> mine;
      while (Clock::now() < until) {
        const size_t i = next.fetch_add(1);
        // Whole rounds of cells alternate, so each cell is split evenly.
        const bool traced = trace && (i / spec.cells.size()) % 2 == 0;
        Request r = MakeRequest(spec, in, seed, i, traced);
        const uint64_t settled = acked_length.load();
        const auto t0 = Clock::now();
        QueryRecord rec = RunOne(client.get(), spec, r);
        spans->Add("client.query", t0, Clock::now(), -1, i);
        rec.settled_length = settled;
        rec.end_s = MsBetween(start, Clock::now()) / 1000.0;
        if (rec.outcome == pb::Outcome::kTransport) client = Connect(port);
        mine.push_back(std::move(rec));
      }
      std::lock_guard<std::mutex> lock(mu);
      queries_end = std::max(queries_end, Clock::now());
      for (auto& r : mine) out.queries.push_back(std::move(r));
    });
  }
  if (appender) {
    threads.emplace_back([&] {
      out.appends = AppendLoop(in, port, append_series, append_base, until,
                               0, spans, &acked_length);
    });
  }
  for (auto& t : threads) t.join();
  out.window_s = MsBetween(start, Clock::now()) / 1000.0;
  out.query_window_s = MsBetween(start, queries_end) / 1000.0;
  std::sort(out.queries.begin(), out.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.index < b.index;
            });
  return out;
}

// ------------------------------------------------------------ gates

struct GateResult {
  bool ok = true;
  std::vector<std::string> problems;
  size_t answers_checked = 0;
  double median_selectivity_ratio = 0;

  void Fail(const std::string& why) {
    ok = false;
    problems.push_back(why);
  }
};


/// Picks `want` of `candidates` spread over the whole run: every stride-th
/// from a seed-chosen start, the stride a prime that does not divide
/// `period` (the number of query bases), so the picks walk through every
/// cell, base and series instead of repeating a few.
std::vector<QueryRecord*> Spread(const std::vector<QueryRecord*>& candidates,
                                 size_t want, size_t period, uint64_t seed) {
  auto prime = [](size_t v) {
    if (v < 2) return false;
    for (size_t d = 2; d * d <= v; ++d) {
      if (v % d == 0) return false;
    }
    return true;
  };
  size_t stride = std::max<size_t>(1, candidates.size() / std::max<size_t>(1, want));
  while (!prime(stride) || period % stride == 0) ++stride;
  std::vector<QueryRecord*> out;
  for (size_t i = seed % stride; i < candidates.size(); i += stride) {
    out.push_back(candidates[i]);
  }
  return out;
}

/// Compares a sample of answers against src/baseline: BruteForceMatch for
/// ED, the exact UCR Suite scan for DTW (brute-force DTW would take minutes
/// per query at 1M points) and for federated top-k. On ingest-cold the
/// appended-to series is sampled on its own and checked against its final
/// acknowledged values, exactly over the windows acknowledged before the
/// request was sent.
void CheckAnswers(const Spec& spec, const Inputs& in, uint64_t seed,
                  const std::vector<AppendRecord>& appends,
                  std::vector<QueryRecord>* queries, GateResult* gate) {
  const size_t hot = spec.hot_points ? in.series.size() - 1 : SIZE_MAX;
  std::vector<QueryRecord*> ok, on_hot;
  for (auto& q : *queries) {
    if (q.outcome != pb::Outcome::kOk) continue;
    ok.push_back(&q);
    if (in.bases[q.base].series == hot) on_hot.push_back(&q);
  }
  std::vector<QueryRecord*> sample =
      Spread(ok, spec.cells.size() * spec.checks_per_cell, in.bases.size(), seed);
  for (QueryRecord* q : Spread(on_hot, spec.cells.size(), in.bases.size(), seed)) {
    if (std::find(sample.begin(), sample.end(), q) == sample.end()) {
      sample.push_back(q);
    }
  }
  TimeSeries hot_final;
  if (hot != SIZE_MAX) {
    std::vector<double> v = in.series[hot].ts.values();
    for (const auto& a : appends) {
      if (a.outcome != pb::Outcome::kOk) continue;
      v.insert(v.end(), in.append_tail.begin() + a.tail_pos,
               in.append_tail.begin() + a.tail_pos + kChunk);
    }
    hot_final = TimeSeries(std::move(v));
  }
  auto values = [&](size_t s) -> const TimeSeries& {
    return s == hot ? hot_final : in.series[s].ts;
  };
  // The UCR Suite scans (DTW, top-k) need each series' prefix sums.
  const bool scans = std::any_of(
      spec.cells.begin(), spec.cells.end(),
      [](const Cell& c) { return IsDtw(c.type) || c.top_k > 0; });
  std::vector<std::unique_ptr<PrefixStats>> prefixes(in.series.size());
  ParallelFor(scans ? in.series.size() : 0, [&](size_t s) {
    prefixes[s] = std::make_unique<PrefixStats>(values(s));
  });
  std::vector<std::string> errors(sample.size());
  ParallelFor(sample.size(), [&](size_t i) {
    QueryRecord& rec = *sample[i];
    const Request r = MakeRequest(spec, in, seed, rec.index, false);
    const QueryRequest& q = r.wire.request;
    const double eps = q.params.epsilon;
    QueryParams hi = q.params;
    hi.epsilon = eps * (1 + pb::kBoundaryRel);
    auto reference = [&](size_t s, const QueryParams& p) {
      if (IsDtw(p.type) || q.top_k > 0) {
        return UcrSuite(values(s), *prefixes[s]).Match(q.query, p);
      }
      return BruteForceMatch(values(s), q.query, p);
    };
    const auto targets = GlobTargets(spec, in, in.bases[r.base]);
    std::string err;
    if (!spec.federated) {
      const size_t s = in.bases[r.base].series;
      const size_t settled =
          s == hot ? rec.settled_length + 1 - q.query.size() : SIZE_MAX;
      err = pb::CompareToReference(rec.answer, reference(s, hi), eps, settled);
    } else if (q.top_k == 0) {
      for (const auto& t : rec.tagged) {
        bool target = false;
        for (uint32_t s : targets) target |= in.series[s].name == t.series;
        if (!target) err = "served a match of unmatched series " + t.series;
      }
      for (uint32_t s : targets) {
        if (!err.empty()) break;
        std::vector<MatchResult> served;
        for (const auto& t : rec.tagged) {
          if (t.series == in.series[s].name) served.push_back(t.match);
        }
        err = pb::CompareToReference(served, reference(s, hi), eps);
        if (!err.empty()) err = in.series[s].name + ": " + err;
      }
    } else {
      // Every match within the served k-th distance: a closer match the
      // server missed, or a distance it got wrong, changes the first k.
      std::vector<SeriesMatch> served = rec.tagged;
      std::sort(served.begin(), served.end(), SeriesMatchLess);
      std::vector<SeriesMatch> ref;
      if (served.size() != q.top_k) {
        err = "top-k served " + std::to_string(served.size()) + " matches";
      } else {
        QueryParams p = q.params;
        p.epsilon = served.back().match.distance * (1 + 1e-6) + 1e-12;
        for (uint32_t s : targets) {
          for (const auto& m : reference(s, p)) {
            ref.push_back({in.series[s].name, m});
          }
        }
        std::sort(ref.begin(), ref.end(), SeriesMatchLess);
        if (ref.size() < q.top_k) {
          err = "top-k: only " + std::to_string(ref.size()) +
                " exact matches within the served k-th distance";
        }
      }
      for (size_t j = 0; j < served.size() && err.empty(); ++j) {
        const double want = ref[j].match.distance;
        const double tol = 1e-6 * std::max(1.0, want);
        if (std::fabs(served[j].match.distance - want) > tol) {
          err = "top-k rank " + std::to_string(j) + " distance differs";
        }
        bool listed = false;
        for (const auto& h : ref) {
          listed |= h.series == served[j].series &&
                    h.match.offset == served[j].match.offset;
        }
        if (!listed) err = "top-k rank " + std::to_string(j) + " not in reference";
      }
    }
    errors[i] = err;
  });
  for (size_t i = 0; i < sample.size(); ++i) {
    ++gate->answers_checked;
    if (!errors[i].empty()) {
      sample[i]->outcome = pb::Outcome::kWrongAnswer;
      gate->Fail("request " + std::to_string(sample[i]->index) + ": " +
                 errors[i]);
    }
  }
  // Achieved selectivity must stay within 2x of the calibrated target.
  std::vector<double> ratios;
  for (const auto& q : *queries) {
    if (q.outcome != pb::Outcome::kOk) continue;
    const Base& b = in.bases[q.base];
    if (spec.cells[b.cell].top_k > 0) continue;
    ratios.push_back(static_cast<double>(q.matches) / b.target_matches);
  }
  gate->median_selectivity_ratio = pb::Median(ratios);
  if (!ratios.empty() && (gate->median_selectivity_ratio > 2.0 ||
                          gate->median_selectivity_ratio < 0.5)) {
    gate->Fail("median achieved selectivity is " +
               std::to_string(gate->median_selectivity_ratio) +
               "x the target");
  }
}

/// SIGKILLs `serve` after ingest-cold, restarts it on the same store and
/// checks that every acknowledged append is present (length and content).
/// This covers a process crash only: the page cache survives it, so
/// power-loss durability stays unverified.
void CrashCheck(const Spec& spec, const Inputs& in, const std::string& cli,
                const std::string& dir, Cluster* cluster,
                const std::vector<AppendRecord>& appends, GateResult* gate) {
  cluster->servers[0]->Kill();
  std::vector<std::string> unused;
  auto server = StartServe(cli, dir, {"--port", "0"}, &unused);
  const int port = server->WaitPort();
  auto client = Connect(port);
  std::vector<const AppendRecord*> acked;
  for (const auto& a : appends) {
    if (a.outcome == pb::Outcome::kOk) acked.push_back(&a);
  }
  const uint64_t want_hot = spec.hot_points + kChunk * acked.size();
  auto list = client->ListSeries();
  if (!list.ok()) {
    gate->Fail("LIST after restart: " + list.status().ToString());
  } else {
    for (const auto& s : in.series) {
      const uint64_t want = s.name == "hot" ? want_hot : s.ts.size();
      bool found = false;
      for (const auto& info : *list) {
        if (info.name != s.name) continue;
        found = true;
        if (info.length != want) {
          gate->Fail("after restart " + s.name + " has " +
                     std::to_string(info.length) + " points, expected " +
                     std::to_string(want));
        }
      }
      if (!found) gate->Fail("after restart " + s.name + " is missing");
    }
  }
  // Content: a sample of acknowledged chunks must match exactly where
  // their acks put them.
  for (size_t j = 0; j < acked.size(); j += std::max<size_t>(1, acked.size() / 4)) {
    const AppendRecord& a = *acked[j];
    QueryRequest q;
    q.series = "hot";
    q.query.assign(in.append_tail.begin() + a.tail_pos,
                   in.append_tail.begin() + a.tail_pos + kChunk);
    q.params.type = QueryType::kRsmEd;
    q.params.epsilon = 1e-6;
    auto resp = client->Query(q);
    bool hit = false;
    if (resp.ok() && resp->status.ok()) {
      for (const auto& m : resp->matches) hit |= m.offset == a.offset;
    }
    if (!hit) {
      gate->Fail("acknowledged chunk at offset " + std::to_string(a.offset) +
                 " is missing after restart");
    }
  }
  server->Stop();
}

// ------------------------------------------------------------ metrics

using Metrics = std::map<std::string, double>;

struct Sampled {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

Sampled Pct(const std::vector<double>& v, double p) {
  return {pb::Percentile(v, p), v.size(), pb::SamplesBeyond(v.size(), p)};
}

std::vector<double> OkLatencies(const std::vector<QueryRecord>& qs,
                                int traced /* -1 any, 0 no, 1 yes */) {
  std::vector<double> v;
  for (const auto& q : qs) {
    if (q.outcome != pb::Outcome::kOk) continue;
    if (traced >= 0 && q.traced != (traced == 1)) continue;
    v.push_back(q.latency_ms);
  }
  return v;
}

/// One request's server-side stages. A shard's trace holds one request;
/// a coordinator relays each shard sub-request's spans under the prefix
/// "shardN/<series>/".
struct Stages {
  double queue = 0, queue_end = -1, probe = 0, probe_start = -1;
  double serialize = 0;
  std::vector<std::pair<double, double>> verify;  // parallel slices
  // The named spans on this request's blocking path.
  double NamedMs() const { return queue + probe + UnionMs(verify) + serialize; }
};

std::map<std::string, Stages> GroupStages(const QueryTrace& trace) {
  std::map<std::string, Stages> out;
  for (const auto& sp : trace.spans()) {
    const size_t slash = sp.name.rfind('/');
    const std::string prefix =
        slash == std::string::npos ? "" : sp.name.substr(0, slash + 1);
    const std::string leaf = sp.name.substr(prefix.size());
    const double end = sp.start_ms + sp.dur_ms;
    if (leaf == kSpanQueue) {
      out[prefix].queue += sp.dur_ms;
      out[prefix].queue_end = end;
    } else if (leaf == kSpanProbe) {
      Stages& st = out[prefix];
      st.probe += sp.dur_ms;
      if (st.probe_start < 0 || sp.start_ms < st.probe_start) {
        st.probe_start = sp.start_ms;
      }
    } else if (leaf == kSpanVerify) {
      out[prefix].verify.push_back({sp.start_ms, end});
    } else if (leaf == kSpanSerialize) {
      out[prefix].serialize += sp.dur_ms;
    }
  }
  return out;
}

/// A coordinator's blocking path through its own spans: the slowest
/// "shardN" round trip (which holds that shard's stages) plus "merge".
/// 0 on a shard's trace.
double CoordinatorPathMs(const QueryTrace& trace) {
  double slowest = 0, merge = 0;
  for (const auto& sp : trace.spans()) {
    if (sp.name == "merge") merge += sp.dur_ms;
    if (sp.name.rfind("shard", 0) == 0 &&
        sp.name.find('/') == std::string::npos) {
      slowest = std::max(slowest, sp.dur_ms);
    }
  }
  return slowest + merge;
}

volatile double g_distance_sink = 0;

/// Per-layer numbers the bench measures by calling the library itself.
struct InProcess {
  std::vector<double> plan_ms, probe_ms, verify_ms, dtw_us, ed_ns;
  std::vector<double> flush_ms, open_ms, scan_ms_per_open, series_read_ms;
  // Per append: flushes + catalog self time + the session reopen after it.
  std::vector<double> append_path_ms;
  double flushes_per_commit = 0;
};

/// Re-runs a sample of the run's requests, a few appends, session opens
/// and a series read through the library against the run's own store
/// (after its server has stopped), timing each module's public calls.
InProcess ReplayInProcess(const Spec& spec, const Inputs& in, uint64_t seed,
                          const std::string& store_path,
                          const std::vector<QueryRecord>& queries,
                          const std::string& append_series,
                          SpanLog* spans) {
  InProcess out;
  auto file = FileKvStore::Open(store_path);
  if (!file.ok()) Die("reopen store: " + file.status().ToString());
  TimingKvStore store(file->get());
  Catalog catalog(&store);
  const auto names = catalog.ListSeries();
  auto on_store = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };

  // ts: SeriesStore::Open + ReadAll of one catalog series (not `hot`).
  for (const auto& s : in.series) {
    if (s.name == "hot" || !on_store(s.name)) continue;
    auto epoch = catalog.SeriesEpoch(s.name);
    if (!epoch.ok()) continue;
    const std::string ns =
        "series/" + s.name + "/e" + std::to_string(*epoch) + "/data/";
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      auto ss = SeriesStore::Open(&store, ns);
      if (!ss.ok()) Die("SeriesStore::Open: " + ss.status().ToString());
      auto all = ss->ReadAll();
      if (!all.ok() || all->size() != *catalog.SeriesLength(s.name)) {
        Die("ReadAll failed");
      }
      const auto t1 = Clock::now();
      spans->Add("ts.series_read", t0, t1, -1, 0);
      out.series_read_ms.push_back(MsBetween(t0, t1));
    }
    break;
  }

  // storage: scan time of each session open (first Acquire of a series).
  std::map<std::string, std::shared_ptr<const Session>> sessions;
  for (const auto& s : in.series) {
    if (!on_store(s.name) || sessions.size() >= 3) continue;
    const double before = store.scan_ms_total;
    const auto t0 = Clock::now();
    auto session = catalog.Acquire(s.name);
    const auto t1 = Clock::now();
    if (!session.ok()) Die("Acquire: " + session.status().ToString());
    spans->Add("catalog.acquire", t0, t1, -1, 0);
    out.open_ms.push_back(MsBetween(t0, t1));
    out.scan_ms_per_open.push_back(store.scan_ms_total - before);
    sessions[s.name] = *session;
  }

  // matchdp / match / distance: a sample of the run's ε-requests.
  size_t replayed = 0;
  std::vector<int> per_cell(spec.cells.size(), 0);
  for (const auto& rec : queries) {
    if (replayed >= 12) break;
    const Base& base = in.bases[rec.base];
    if (spec.cells[base.cell].top_k > 0 || per_cell[base.cell] >= 3) continue;
    const std::string& series = in.series[base.series].name;
    if (!on_store(series)) continue;
    if (!sessions.count(series)) {
      auto s = catalog.Acquire(series);
      if (!s.ok()) continue;
      sessions[series] = *s;
    }
    const Session& session = *sessions[series];
    const Request r = MakeRequest(spec, in, seed, rec.index, false);
    const auto& q = r.wire.request;
    const auto t0 = Clock::now();
    auto exec = session.MakeExecutor(q.query, q.params);
    const auto t1 = Clock::now();
    if (!exec.ok()) Die("MakeExecutor: " + exec.status().ToString());
    if (!(*exec)->RunPhase1().ok()) Die("RunPhase1 failed");
    const auto t2 = Clock::now();
    const size_t slices =
        (*exec)->SliceCandidates(QueryExecutor::kDefaultSlicePositions);
    MatchStats st;
    for (size_t i = 0; i < slices; ++i) {
      if (!(*exec)->VerifySlice(i, {}, &st).ok()) Die("VerifySlice failed");
    }
    const auto t3 = Clock::now();
    const int64_t root = spans->Add("inproc.query", t0, t3, -1, rec.index);
    spans->Add("matchdp.make_executor", t0, t1, root, rec.index);
    spans->Add("match.run_phase1", t1, t2, root, rec.index);
    spans->Add("match.verify_slices", t2, t3, root, rec.index);
    out.plan_ms.push_back(MsBetween(t0, t1));
    out.probe_ms.push_back(MsBetween(t1, t2));
    out.verify_ms.push_back(MsBetween(t2, t3));

    // distance: exact kernels on this request's own candidate windows.
    const size_t m = q.query.size();
    const bool norm = IsNormalized(q.params.type);
    const std::vector<double> qc =
        norm ? ZNormalize(q.query) : std::vector<double>(q.query);
    std::vector<std::vector<double>> windows;
    for (const auto& iv : (*exec)->candidates().intervals()) {
      for (int64_t p = iv.l; p <= iv.r && windows.size() < 256; ++p) {
        if (static_cast<size_t>(p) + m > session.series().size()) break;
        auto w = session.series().Subsequence(static_cast<size_t>(p), m);
        windows.push_back(norm ? ZNormalize(w)
                               : std::vector<double>(w.begin(), w.end()));
      }
    }
    if (!windows.empty()) {
      double sink = 0;
      const size_t rho = std::max<size_t>(1, m / 20);
      const auto d0 = Clock::now();
      for (const auto& w : windows) sink += DtwDistance(w, qc, rho);
      const auto d1 = Clock::now();
      for (int rep = 0; rep < 20; ++rep) {
        for (const auto& w : windows) sink += EuclideanDistance(w, qc);
      }
      const auto d2 = Clock::now();
      g_distance_sink = sink;  // keeps the timed kernels from being elided
      out.dtw_us.push_back(MsBetween(d0, d1) * 1e3 / windows.size());
      out.ed_ns.push_back(MsBetween(d1, d2) * 1e6 / (20.0 * windows.size()));
    }
    ++per_cell[base.cell];
    ++replayed;
  }
  sessions.clear();

  // storage: flushes per commit and their duration, from a few appends,
  // each followed by the session reopen a query after a commit pays. The
  // flushes are child spans of their catalog.append.
  if (on_store(append_series)) {
    const int kAppends = static_cast<int>(kReservedChunks);
    if (!catalog.Acquire(append_series).ok()) Die("Acquire before append");
    for (int j = 0; j < kAppends; ++j) {
      std::span<const double> chunk(
          in.append_tail.data() + in.append_tail.size() - (j + 1) * kChunk,
          kChunk);
      const size_t first_flush = store.flushes.size();
      const auto t0 = Clock::now();
      Status st = catalog.AppendSeries(append_series, chunk);
      const auto t1 = Clock::now();
      if (!st.ok()) Die("in-process append: " + st.ToString());
      auto reopened = catalog.Acquire(append_series);
      const auto t2 = Clock::now();
      if (!reopened.ok()) Die("reopen: " + reopened.status().ToString());
      const int64_t root = spans->Add("inproc.append", t0, t2, -1, j);
      const int64_t commit = spans->Add("catalog.append", t0, t1, root, j);
      spans->Add("catalog.reopen", t1, t2, root, j);
      for (size_t f = first_flush; f < store.flushes.size(); ++f) {
        const auto [f0, f1] = store.flushes[f];
        spans->Add("storage.flush", f0, f1, commit, j);
        out.flush_ms.push_back(MsBetween(f0, f1));
      }
      out.append_path_ms.push_back(MsBetween(t0, t2));
    }
    out.flushes_per_commit =
        static_cast<double>(out.flush_ms.size()) / kAppends;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " + std::string(argv[i]));
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "cli", "work"}) {
    if (!args.count(k)) Die(std::string("missing --") + k);
  }
  const Spec spec = MakeSpec(args["workload"]);
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  const std::string cli = args["cli"];
  const std::string work = args["work"];
  SpanLog spans(trace);
  fs::remove_all(work);
  fs::create_directories(work);

  const Inputs in = MakeInputs(spec, seed);
  // ingest-cold appends to `hot` (last); the others probe series 0.
  const SeriesData& append_target =
      spec.concurrent_appender ? in.series.back() : in.series[0];
  const std::string append_series = append_target.name;
  const uint64_t append_base = append_target.ts.size();

  // Set-up, several times: spawn on an empty store -> every CREATE acked
  // -> first query answered. The last cluster serves the timed window.
  std::vector<double> setup_s;
  Cluster cluster;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const std::string dir = work + "/setup" + std::to_string(rep);
    const auto t0 = Clock::now();
    Cluster c = StartCluster(spec, cli, dir);
    CreateCatalog(in, c.port, spec, seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (rep + 1 < spec.setup_reps) {
      c.Stop();
      fs::remove_all(dir);
    } else {
      cluster = std::move(c);
    }
  }
  const std::string final_dir = work + "/setup" + std::to_string(spec.setup_reps - 1);
  Log("setup_s: " + std::to_string(pb::Median(setup_s)));

  // Warm-up with other perturbations of the same bases (row caches,
  // lazily built state), then the timed window.
  SpanLog no_spans(false);
  RunLoad(spec, in, seed ^ 0xa5a5a5a5ull, cluster.port,
          std::min(1.0, 0.2 * seconds), false, false, &no_spans,
          append_series, append_base);
  std::vector<std::unique_ptr<net::Client>> stat_clients;
  std::vector<int> stat_ports = spec.federated ? cluster.shard_ports
                                               : std::vector<int>{cluster.port};
  for (int p : stat_ports) stat_clients.push_back(Connect(p));
  auto scrape = [&] {
    std::map<std::string, double> total;
    for (auto& c : stat_clients) {
      auto text = c->StatsText();
      if (!text.ok()) Die("STATS: " + text.status().ToString());
      for (const auto& [k, v] : pb::ParsePrometheus(*text)) total[k] += v;
    }
    return total;
  };
  const auto prom0 = scrape();
  const auto io0 = cluster.IoBytes();
  LoadResult load =
      RunLoad(spec, in, seed, cluster.port, seconds, trace,
              spec.concurrent_appender, &spans, append_series, append_base);
  auto prom1 = scrape();
  auto io1 = cluster.IoBytes();
  auto io_base = io0;
  if (!spec.concurrent_appender) {
    // Append probe: sequential appends with no queries in flight, at
    // least 40 of them and at least 3 s' worth.
    io_base = io1;
    std::atomic<uint64_t> acked_length{append_base};
    load.appends = AppendLoop(in, cluster.port, append_series, append_base,
                              Clock::now() + std::chrono::seconds(3), 40,
                              &spans, &acked_length);
    prom1 = scrape();
    io1 = cluster.IoBytes();
  }

  // Trace-only client-side extras: ping RTT, coordinator overhead.
  std::vector<double> ping_ms, coord_overhead_ms, merge_ms;
  if (trace) {
    auto c = Connect(cluster.port);
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      if (!c->Ping().ok()) Die("PING failed");
      const auto t1 = Clock::now();
      spans.Add("client.ping", t0, t1, -1, i);
      ping_ms.push_back(MsBetween(t0, t1));
    }
    if (spec.federated) {
      std::vector<std::unique_ptr<net::Client>> shards;
      for (int p : cluster.shard_ports) shards.push_back(Connect(p));
      for (size_t i = 0; i < 24; ++i) {
        Request r = MakeRequest(spec, in, seed ^ 0xc00dull, i, false);
        const auto f0 = Clock::now();
        auto fed = c->FederatedQuery(r.wire);
        const double fed_ms = MsBetween(f0, Clock::now());
        if (!fed.ok() || !fed->status.ok()) Die("federated replay failed");
        double slowest = 0;
        std::vector<std::vector<SeriesMatch>> sources;
        for (size_t s = 0; s < shards.size(); ++s) {
          std::vector<std::pair<std::string, uint64_t>> ids;
          const auto s0 = Clock::now();
          for (uint32_t t : GlobTargets(spec, in, in.bases[r.base])) {
            const SeriesData& sd = in.series[t];
            if (coord::Fnv1a64(sd.name) % shards.size() != s) continue;
            QueryRequest q = r.wire.request;
            q.series = sd.name;
            auto id = shards[s]->SendRequest(q);
            if (!id.ok()) Die("shard send failed");
            ids.push_back({sd.name, *id});
          }
          for (const auto& [name, id] : ids) {
            auto resp = shards[s]->WaitResponse(id);
            if (!resp.ok() || !resp->status.ok()) Die("shard query failed");
            std::vector<SeriesMatch> tagged;
            for (const auto& m : resp->matches) tagged.push_back({name, m});
            sources.push_back(std::move(tagged));
          }
          slowest = std::max(slowest, MsBetween(s0, Clock::now()));
        }
        coord_overhead_ms.push_back(fed_ms - slowest);
        if (r.wire.request.top_k > 0) {
          const auto m0 = Clock::now();
          auto merged = MergeTopK(sources, r.wire.request.top_k);
          const auto m1 = Clock::now();
          spans.Add("coord.merge_topk", m0, m1, -1, i);
          merge_ms.push_back(MsBetween(m0, m1));
          if (merged.size() != r.wire.request.top_k) Die("merge size");
        }
      }
    }
  }

  // End-of-run measures.
  const double rss_mb = cluster.PeakRssMb();
  GateResult gate;
  uint64_t acked = 0;
  for (const auto& a : load.appends) acked += a.outcome == pb::Outcome::kOk;
  double raw_points = 0;
  for (const auto& s : in.series) raw_points += s.ts.size();
  raw_points += static_cast<double>(acked * kChunk);
  const double store_bytes = static_cast<double>(cluster.StoreBytes());
  const double space_amp = store_bytes / (8.0 * raw_points);

  if (spec.concurrent_appender) {
    CrashCheck(spec, in, cli, final_dir + "/serve", &cluster, load.appends,
               &gate);
  }
  cluster.Stop();
  for (const auto& a : load.appends) {
    if (a.outcome == pb::Outcome::kWrongAnswer) gate.Fail("append ack length");
  }
  CheckAnswers(spec, in, seed, load.appends, &load.queries, &gate);

  pb::OutcomeCounts counts;
  for (const auto& q : load.queries) counts.Add(q.outcome);
  for (const auto& a : load.appends) counts.Add(a.outcome);

  // ---- end-to-end metrics
  Metrics m;
  std::map<std::string, Sampled> sampled;
  const auto lat = OkLatencies(load.queries, trace ? 0 : -1);
  std::vector<double> app;
  for (const auto& a : load.appends) {
    if (a.outcome == pb::Outcome::kOk) app.push_back(a.latency_ms);
  }
  double append_window_s = 0;
  for (const double a : app) append_window_s += a / 1000.0;
  size_t ok_queries = 0;
  for (const auto& q : load.queries) ok_queries += q.outcome == pb::Outcome::kOk;
  sampled["setup_s"] = {pb::Median(setup_s), setup_s.size(), 0};
  // Query metrics are medians over kRounds equal slices of the window (by
  // completion time), so a burst of host noise in one slice does not move
  // them.
  constexpr size_t kRounds = 5;
  std::vector<std::vector<double>> round_lat(kRounds);
  for (const auto& q : load.queries) {
    if (q.outcome != pb::Outcome::kOk || (trace && q.traced)) continue;
    const size_t r = std::min<size_t>(
        kRounds - 1, static_cast<size_t>(q.end_s * kRounds / load.query_window_s));
    round_lat[r].push_back(q.latency_ms);
  }
  std::vector<double> round_qps, round_p50, round_p90;
  size_t beyond50 = 0, beyond90 = 0;
  for (const auto& v : round_lat) {
    round_qps.push_back(v.size() * kRounds / load.query_window_s);
    round_p50.push_back(pb::Percentile(v, 50));
    round_p90.push_back(pb::Percentile(v, 90));
    beyond50 += pb::SamplesBeyond(v.size(), 50);
    beyond90 += pb::SamplesBeyond(v.size(), 90);
  }
  sampled["query_qps"] = {pb::Median(round_qps), ok_queries, 0};
  sampled["query_p50_ms"] = {pb::Median(round_p50), lat.size(), beyond50};
  // p90, not p99: p99 rests on the few costliest query shapes a seed
  // draws, and its spread across seeds exceeded 0.25 (it is reported as
  // the per-layer bench.query_p99_ms).
  sampled["query_p90_ms"] = {pb::Median(round_p90), lat.size(), beyond90};
  // Only the append median is bounded. A run has 20-60 appends, too few to
  // put ten beyond p90, and each rewrites the whole store file, so the
  // tail follows the shared disk: the p90 spread past 0.25 between runs of
  // the same code (it is the per-layer bench.append_p90_ms).
  sampled["append_p50_ms"] = Pct(app, 50);
  sampled["ingest_points_per_s"] = {
      spec.concurrent_appender ? acked * kChunk / load.window_s
                               : acked * kChunk / append_window_s,
      app.size(), 0};
  sampled["space_amp"] = {space_amp, 1, 0};
  sampled["server_rss_mb"] = {rss_mb, cluster.servers.size(), 0};
  for (const auto& [k, v] : sampled) m[k] = v.value;

  // ---- per-layer metrics (trace runs)
  Metrics layer;
  if (trace) {
    const auto& qs = load.queries;
    std::vector<double> transport, queue, gap, encode, named_ms;
    double req_bytes = 0, resp_bytes = 0, n_ok = 0;
    double cand = 0, cons = 0, lb = 0, calls = 0, matches = 0;
    double probes = 0, rows = 0, bytes = 0, hits = 0, shards = 0;
    std::vector<double> sel;
    for (const auto& q : qs) {
      if (q.outcome != pb::Outcome::kOk) continue;
      n_ok += 1;
      transport.push_back(q.latency_ms - q.server_ms);
      encode.push_back(q.encode_ms);
      req_bytes += q.request_bytes;
      resp_bytes += q.response_bytes;
      cand += q.stats.candidate_positions;
      cons += q.stats.constraint_pruned;
      lb += q.stats.lb_pruned;
      calls += q.stats.distance_calls;
      probes += q.stats.probe.index_accesses;
      rows += q.stats.probe.rows_fetched;
      bytes += q.stats.probe.bytes_fetched;
      hits += q.stats.probe.cache_hits;
      shards += q.shards;
      const Base& b = in.bases[q.base];
      if (spec.cells[b.cell].top_k == 0) {
        matches += q.matches;
        sel.push_back(q.matches / b.target_matches);
      }
      if (!q.trace) continue;
      // The request's blocking path through named spans: queue + probe +
      // verify + serialize on a shard, or the coordinator's shard round
      // trips and merge; plus the bench's own encode of the response
      // (standing in for the client's decode).
      double path = CoordinatorPathMs(*q.trace);
      const bool coordinated = path > 0;
      for (const auto& [prefix, st] : GroupStages(*q.trace)) {
        if (st.queue_end < 0) continue;
        queue.push_back(st.queue);
        if (st.probe_start >= 0) gap.push_back(st.probe_start - st.queue_end);
        if (!coordinated) path = std::max(path, st.NamedMs());
      }
      named_ms.push_back(path + q.encode_ms);
    }
    auto per = [&](double v) { return n_ok > 0 ? v / n_ok : 0.0; };
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const InProcess ip = ReplayInProcess(
        spec, in, seed, cluster.stores[0], qs, append_series, &spans);
    const double queries_done = n_ok;
    const double commits = pb::Delta(prom0, prom1, "kvmatch_commit_latency_ms_count");
    const double commit_sum = pb::Delta(prom0, prom1, "kvmatch_commit_latency_ms_sum");
    double staged = 0;
    for (const char* st : {"journal", "data", "index", "header", "flip"}) {
      staged += pb::Delta(prom0, prom1, std::string("kvmatch_commit_stage_ms_total{stage=\"") + st + "\"}");
    }
    const double appended_bytes = 8.0 * acked * kChunk;
    const auto traced_lat = OkLatencies(qs, 1);
    const auto untraced_lat = OkLatencies(qs, 0);
    layer["net.ping_rtt_ms"] = pb::Median(ping_ms);
    layer["net.transport_ms"] = pb::Median(transport);
    layer["net.request_bytes"] = per(req_bytes);
    layer["net.response_bytes"] = per(resp_bytes);
    layer["net.encode_ms"] = pb::Median(encode);
    layer["service.queue_p50_ms"] = pb::Percentile(queue, 50);
    layer["service.queue_p99_ms"] = pb::Percentile(queue, 99);
    layer["service.acquire_ms"] = pb::Median(gap);
    layer["service.session_opens_per_query"] =
        frac(pb::Delta(prom0, prom1, "kvmatch_series_evicted_total"), queries_done);
    layer["service.commit_ms"] = frac(commit_sum, commits);
    layer["service.commit_unattributed_frac"] =
        commit_sum > 0 ? 1.0 - staged / commit_sum : 0.0;
    layer["matchdp.plan_ms"] = pb::Median(ip.plan_ms);
    layer["match.probe_ms"] = pb::Median(ip.probe_ms);
    layer["match.verify_ms"] = pb::Median(ip.verify_ms);
    layer["match.candidates"] = per(cand);
    layer["match.ab_pruned_frac"] = frac(cons, cand);
    layer["match.verify_yield"] = frac(matches, cand);
    layer["match.selectivity_ratio"] = pb::Median(sel);
    layer["index.probes"] = per(probes);
    layer["index.rows_fetched"] = per(rows);
    layer["index.bytes_fetched"] = per(bytes);
    layer["index.cache_hit_frac"] = frac(hits, hits + rows);
    layer["distance.exact_calls"] = per(calls);
    layer["distance.lb_pruned_frac"] = frac(lb, cand - cons);
    layer["distance.dtw_us_per_call"] = pb::Median(ip.dtw_us);
    layer["distance.ed_ns_per_call"] = pb::Median(ip.ed_ns);
    layer["storage.flush_ms"] = pb::Median(ip.flush_ms);
    layer["storage.flushes_per_commit"] = ip.flushes_per_commit;
    layer["storage.write_amp"] = frac(io1.second - io_base.second, appended_bytes);
    layer["storage.read_amp"] = frac(io1.first - io_base.first, appended_bytes);
    layer["storage.scan_ms"] = pb::Median(ip.scan_ms_per_open);
    layer["ts.series_read_ms"] = pb::Median(ip.series_read_ms);
    layer["coord.overhead_ms"] = pb::Median(coord_overhead_ms);
    layer["coord.merge_ms"] = pb::Median(merge_ms);
    layer["coord.shards_per_query"] = spec.federated ? per(shards) : 0.0;
    layer["bench.trace_overhead_frac"] =
        frac(pb::Median(traced_lat), pb::Median(untraced_lat)) - 1.0;
    // Named self times along the blocking path against the traced median:
    // the server spans above, plus plan and session acquire (opens per
    // query x the in-process open time) timed in-process, plus transport as
    // one ping round trip to the server the client talks to.
    const double fixed_ms =
        pb::Median(ip.plan_ms) +
        layer["service.session_opens_per_query"] * pb::Median(ip.open_ms) +
        pb::Median(ping_ms);
    for (double& v : named_ms) v += fixed_ms;
    layer["bench.query_path_coverage"] =
        frac(pb::Median(named_ms), pb::Median(traced_lat));
    // In-process flushes + catalog self time + session reopen per append
    // against the served append median.
    layer["bench.append_path_coverage"] =
        frac(pb::Median(ip.append_path_ms), pb::Median(app));
    layer["bench.failed_frac"] = frac(counts.failed(), counts.attempted);
    layer["bench.query_p99_ms"] = pb::Percentile(untraced_lat, 99);
    layer["bench.append_p90_ms"] = pb::Percentile(app, 90);

    // Server-side sections of the span file: per-query traces and the
    // /metrics deltas of the timed window.
    std::ostringstream tr;
    tr << "[";
    bool first = true;
    for (const auto& q : qs) {
      if (!q.trace) continue;
      tr << (first ? "" : ",") << "{\"request\":" << q.index << ",\"spans\":[";
      first = false;
      bool f2 = true;
      for (const auto& s : q.trace->spans()) {
        tr << (f2 ? "" : ",") << "{\"name\":\"" << s.name << "\",\"start_ms\":"
           << pb::JsonNumber(s.start_ms) << ",\"dur_ms\":"
           << pb::JsonNumber(s.dur_ms) << ",\"worker\":" << s.worker << "}";
        f2 = false;
      }
      tr << "]}";
    }
    tr << "]";
    spans.AddSection("server_traces", tr.str());
    std::ostringstream md;
    md << "{";
    first = true;
    for (const auto& [k, v] : prom1) {
      const double d = pb::Delta(prom0, prom1, k);
      if (d == 0) continue;
      if (k.find("flush") == std::string::npos &&
          k.find("commit") == std::string::npos &&
          k.find("evicted") == std::string::npos) {
        continue;
      }
      md << (first ? "" : ",") << "\"" << JsonEscape(k) << "\":" << pb::JsonNumber(d);
      first = false;
    }
    md << "}";
    spans.AddSection("metrics_delta", md.str());
  }

  // ---- run metadata (one line before the result)
  std::ostringstream meta;
  meta << "{\"workload\":\"" << spec.name << "\",\"seed\":" << seed
       << ",\"seconds\":" << pb::JsonNumber(seconds)
       << ",\"trace\":" << (trace ? 1 : 0)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"simd_tier\":\"" << simd::TierName(simd::ActiveTier())
       << "\",\"server_flags\":\"";
  for (const auto& a : cluster.serve_args) meta << JsonEscape(a) << " ";
  meta << "(shipped defaults otherwise)\",\"connections\":"
       << spec.query_conns + (spec.concurrent_appender ? 1 : 0)
       << ",\"outcomes\":{";
  bool first = true;
  for (const auto& [o, n] : counts.by_outcome) {
    meta << (first ? "" : ",") << "\"" << pb::OutcomeName(o) << "\":" << n;
    first = false;
  }
  meta << "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : sampled) {
    meta << (first ? "" : ",") << "\"" << k << "\":{\"n\":" << v.samples
         << ",\"beyond\":" << v.beyond << "}";
    first = false;
  }
  meta << "},\"rounds\":[";
  for (size_t r = 0; r < kRounds; ++r) {
    meta << (r ? "," : "") << "{\"qps\":" << pb::JsonNumber(round_qps[r])
         << ",\"p50_ms\":" << pb::JsonNumber(round_p50[r])
         << ",\"p90_ms\":" << pb::JsonNumber(round_p90[r]) << "}";
  }
  // Per-cell median and p99, so a reader can see which query shape moved.
  meta << "],\"cells\":[";
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    std::vector<double> v;
    for (const auto& q : load.queries) {
      if (q.outcome == pb::Outcome::kOk && in.bases[q.base].cell == c) {
        v.push_back(q.latency_ms);
      }
    }
    meta << (c ? "," : "") << "{\"n\":" << v.size() << ",\"p50_ms\":"
         << pb::JsonNumber(pb::Percentile(v, 50)) << ",\"p99_ms\":"
         << pb::JsonNumber(pb::Percentile(v, 99)) << "}";
  }
  meta << "],\"queries_redrawn\":" << in.redrawn
       << ",\"answers_checked\":" << gate.answers_checked
       << ",\"median_selectivity_ratio\":"
       << pb::JsonNumber(gate.median_selectivity_ratio)
       << ",\"durability\":\""
       << (spec.concurrent_appender
               ? "checked after SIGKILL of serve: covers a process crash "
                 "only; power-loss durability is unverified"
               : "not checked on this workload")
       << "\",\"problems\":[";
  for (size_t i = 0; i < gate.problems.size(); ++i) {
    meta << (i ? "," : "") << "\"" << JsonEscape(gate.problems[i]) << "\"";
  }
  meta << "]}";
  std::printf("# meta %s\n", meta.str().c_str());
  if (trace && args.count("spans")) spans.Write(args["spans"], meta.str());

  const Metrics& out = trace ? layer : m;
  const auto& specs = trace ? pb::PerLayerMetrics() : pb::EndToEndMetrics();
  std::ostringstream result;
  result << "{\"correct\":" << (gate.ok ? "true" : "false")
         << ",\"attempted\":" << counts.attempted
         << ",\"failed\":" << counts.failed() << ",\"metrics\":{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = out.find(specs[i].name);
    result << (i ? "," : "") << "\"" << specs[i].name << "\":{\"value\":"
           << pb::JsonNumber(it == out.end() ? 0.0 : it->second)
           << ",\"unit\":\"" << specs[i].unit << "\"}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  fs::remove_all(work);
  return gate.ok ? 0 : 1;
}
