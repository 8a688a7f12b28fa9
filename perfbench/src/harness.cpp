#include "harness.hpp"

#include <omp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>

#include "graph/dataset.hpp"

namespace pb {

namespace {

thread_local std::int64_t tls_op = -1;
thread_local bool tls_traced = false;
thread_local std::uint32_t tls_parent = 0;

/// Workload op counts are tuned for this run length (BENCHMARK.json
/// run_seconds); other --seconds values scale them proportionally.
constexpr double kNominalSeconds = 20.0;

/// Reference kernel: every thread makes kReferenceReads random reads over
/// kReferenceWords 32-bit words (32 MiB: past every core's L2, inside the
/// shared L3 that the workloads' graphs live in).
constexpr std::size_t kReferenceWords = std::size_t(1) << 23;
constexpr long kReferenceReads = 1L << 18;
/// Seconds between reference samples.
constexpr double kReferencePeriod = 0.1;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// The helper's loop: one kernel run per byte read from `in`, answered
/// with its time on `out`. The time is each thread's own CPU time, the
/// median over threads: it follows the memory system's speed but not the
/// time a thread waits for a core (the run's own threads may still be
/// spinning) or to wake up, and the threads share no barrier.
[[noreturn]] void reference_helper(int threads, int in, int out) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<std::uint32_t> buf(kReferenceWords);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint32_t>(i * 2654435761U);
  }
  std::vector<double> cpu(static_cast<std::size_t>(threads));
  char c = 0;
  while (::read(in, &c, 1) == 1) {
    std::uint64_t sink = 0;
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    {
      const int t = omp_get_thread_num();
      std::uint64_t x = std::uint64_t(t) + 1;
      const double c0 = thread_cpu_s();
      for (long i = 0; i < kReferenceReads; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sink += buf[(x >> 33) & (kReferenceWords - 1)];
      }
      cpu[static_cast<std::size_t>(t)] = thread_cpu_s() - c0;
    }
    std::sort(cpu.begin(), cpu.end());
    const std::size_t mid = cpu.size() / 2;
    double s = cpu.size() % 2 ? cpu[mid] : (cpu[mid - 1] + cpu[mid]) / 2;
    if (sink == 42) s += 1e-12;  // keep the reads
    if (::write(out, &s, sizeof s) != sizeof s) break;
  }
  _exit(0);
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::size_t Config::ops(std::size_t nominal, std::size_t minimum) const {
  const double n = std::round(double(nominal) * seconds / kNominalSeconds);
  return std::max(minimum, static_cast<std::size_t>(std::max(n, 0.0)));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_s() { return double(now_ns()) * 1e-9; }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the tag
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng r(seed ^ h);
  return r.next();
}

// ------------------------------------------------------------ reference --

Reference::Reference(int threads) {
  int down[2], up[2];
  if (::pipe(down) != 0) return;
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(down[1]);
    ::close(up[0]);
    reference_helper(threads, down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  if (pid < 0) {
    ::close(down[1]);
    ::close(up[0]);
    return;
  }
  pid_ = pid;
  to_helper_ = down[1];
  from_helper_ = up[0];
}

Reference::~Reference() {
  if (pid_ < 0) return;
  ::close(to_helper_);  // the helper reads EOF and exits
  ::close(from_helper_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double Reference::sample() {
  if (pid_ < 0) return -1;
  const char c = 1;
  double s = -1;
  if (::write(to_helper_, &c, 1) != 1 ||
      ::read(from_helper_, &s, sizeof s) != sizeof s) {
    return -1;
  }
  return s;
}

// ---------------------------------------------------------------- spans --

OpScope::OpScope(std::int64_t op, bool traced)
    : prev_op_(tls_op), prev_traced_(tls_traced), prev_parent_(tls_parent) {
  tls_op = op;
  tls_traced = traced;
  tls_parent = 0;
}

OpScope::~OpScope() {
  tls_op = prev_op_;
  tls_traced = prev_traced_;
  tls_parent = prev_parent_;
}

Span::Span(Recorder& rec, const char* name) : name_(name) {
  if (!tls_traced) return;
  rec_ = &rec;
  id_ = rec.next_span_id();
  prev_parent_ = tls_parent;
  tls_parent = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (rec_ == nullptr) return;
  const std::int64_t end = now_ns();
  tls_parent = prev_parent_;
  SpanRecord s;
  s.id = id_;
  s.parent = prev_parent_;
  s.name = name_;
  s.start_ns = start_ns_;
  s.end_ns = end;
  s.op = tls_op;
  std::lock_guard<std::mutex> lock(rec_->mu_);
  rec_->spans_.push_back(std::move(s));
}

// --------------------------------------------------------------- record --

int Recorder::cell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      cell_index_.emplace(name, static_cast<int>(cells_.size()));
  if (inserted) cells_.push_back(name);
  return it->second;
}

void Recorder::begin_measure(std::size_t round_ops) {
  std::lock_guard<std::mutex> lock(mu_);
  measure_start_ = now_s();
  round_ops_ = round_ops;
}

void Recorder::op(std::int64_t id, int cell, double seconds, bool traced,
                  double end) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back({id, cell, seconds, traced, end});
}

void Recorder::reference(bool force) {
  const double t0 = now_s();
  if (!force && t0 - last_reference_ < kReferencePeriod) return;
  const double s = ref_->sample();
  const double end = now_s();
  last_reference_ = end;
  if (s < 0) {
    attempt();
    fail("reference helper is gone");
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  reference_s_.push_back(s);
  gaps_.emplace_back(t0, end);
}

void Recorder::gap(double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  gaps_.emplace_back(start, end);
}

void Recorder::attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Recorder::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Recorder::value(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(v);
}

void Recorder::param(const std::string& name, double v) {
  std::string json;
  append_number(json, v);
  std::lock_guard<std::mutex> lock(mu_);
  params_[name] = json;
}

void Recorder::param(const std::string& name, const std::vector<double>& vs) {
  std::string json = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) json += ',';
    append_number(json, vs[i]);
  }
  json += ']';
  std::lock_guard<std::mutex> lock(mu_);
  params_[name] = json;
}

std::uint32_t Recorder::next_span_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_span_++;
}

void Recorder::span(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::int64_t op) {
  SpanRecord s;
  s.id = next_span_id();
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.op = op;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

bool Recorder::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"workload\":";
  append_string(out, cfg_.workload);
  out += ",\"seed\":" + std::to_string(cfg_.seed);
  out += ",\"trace\":";
  out += cfg_.trace ? "true" : "false";
  out += ",\"threads\":" + std::to_string(cfg_.threads);
  out += ",\"params\":{\"scale\":";
  append_number(out, cfg_.scale);
  out += ",\"setup_repetitions\":" +
         std::to_string(Config::kSetupRepetitions);
  for (const auto& [name, json] : params_) {
    out += ',';
    append_string(out, name);
    out += ':' + json;
  }
  out += '}';
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i) out += ',';
    append_string(out, errors_[i]);
  }
  out += "],\"peak_rss_mb\":";
  append_number(out, peak_rss_mb());
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s_.size(); ++i) {
    if (i) out += ',';
    append_number(out, setup_s_[i]);
  }
  out += "],\"reference_s\":[";
  for (std::size_t i = 0; i < reference_s_.size(); ++i) {
    if (i) out += ',';
    append_number(out, reference_s_[i]);
  }
  out += "],\"gaps\":[";
  for (std::size_t i = 0; i < gaps_.size(); ++i) {
    if (i) out += ',';
    out += '[';
    append_number(out, gaps_[i].first - measure_start_);
    out += ',';
    append_number(out, gaps_[i].second - measure_start_);
    out += ']';
  }
  out += "],\"round_ops\":" + std::to_string(round_ops_);
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (i) out += ',';
    append_string(out, cells_[i]);
  }
  out += "],\"ops\":[";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i) out += ',';
    out += '[' + std::to_string(ops_[i].cell) + ',';
    append_number(out, ops_[i].seconds);
    out += ops_[i].traced ? ",1," : ",0,";
    out += std::to_string(ops_[i].id) + ',';
    append_number(out, ops_[i].end - measure_start_);
    out += ']';
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [name, vs] : values_) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ',';
      append_number(out, vs[i]);
    }
    out += ']';
  }
  out += "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i) out += ',';
    out += '[' + std::to_string(s.id) + ',' + std::to_string(s.parent) + ',';
    append_string(out, s.name);
    out += ',' + std::to_string(s.start_ns) + ',' + std::to_string(s.end_ns) +
           ',' + std::to_string(s.op) + ']';
  }
  out += "]}\n";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

std::shared_ptr<const sbg::CsrGraph> generate(Recorder& rec,
                                              const std::string& name,
                                              const Config& cfg) {
  Span span(rec, "graph.generate");
  return std::make_shared<const sbg::CsrGraph>(
      sbg::make_dataset(name, cfg.scale, derive_seed(cfg.seed, name)));
}

EdgePool::EdgePool(const sbg::CsrGraph& g) : adj_(g.num_vertices()) {
  live_.reserve(g.num_edges());
  for (sbg::vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    adj_[v].assign(nbrs.begin(), nbrs.end());
    for (const sbg::vid_t w : nbrs) {
      if (v < w) live_.push_back({v, w});
    }
  }
}

bool EdgePool::has(sbg::vid_t x, sbg::vid_t y) const {
  if (adj_[x].size() > adj_[y].size()) std::swap(x, y);
  return std::find(adj_[x].begin(), adj_[x].end(), y) != adj_[x].end();
}

void EdgePool::unlink(sbg::vid_t x, sbg::vid_t y) {
  for (auto [from, to] : {std::pair(x, y), std::pair(y, x)}) {
    auto& list = adj_[from];
    *std::find(list.begin(), list.end(), to) = list.back();
    list.pop_back();
  }
}

sbg::dyn::UpdateBatch EdgePool::batch(Rng& rng, double fraction) {
  const std::size_t swaps = std::max<std::size_t>(
      1, std::size_t(fraction * double(live_.size()) / 4 + 0.5));
  sbg::dyn::UpdateBatch out;
  const auto fresh = [&](sbg::vid_t x, sbg::vid_t y) {
    return x != y && !has(x, y);
  };
  // A draw fails when an endpoint is shared or a new edge exists already;
  // on small dense graphs a batch may end with fewer swaps.
  for (std::size_t tries = 0; out.insert.size() < 2 * swaps &&
                              tries < 64 * swaps && live_.size() >= 2;
       ++tries) {
    const std::size_t i = rng.below(live_.size());
    const std::size_t j = rng.below(live_.size());
    if (i == j) continue;
    const sbg::Edge e1 = live_[i];
    sbg::Edge e2 = live_[j];
    if (rng.below(2)) std::swap(e2.u, e2.v);
    const sbg::vid_t a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (!fresh(a, d) || !fresh(c, b)) continue;
    const sbg::Edge n1{std::min(a, d), std::max(a, d)};
    const sbg::Edge n2{std::min(c, b), std::max(c, b)};
    if (n1 == n2) continue;
    // Take the higher index first so the lower one stays in place.
    for (const std::size_t k : {std::max(i, j), std::min(i, j)}) {
      out.remove.push_back(live_[k]);
      live_[k] = live_.back();
      live_.pop_back();
    }
    for (const sbg::Edge e : {n1, n2}) {
      adj_[e.u].push_back(e.v);
      adj_[e.v].push_back(e.u);
      out.insert.push_back(e);
    }
  }
  // Deletes leave the adjacency and inserts join the pool only now, so the
  // batch neither re-inserts nor deletes an edge it touched itself.
  for (const sbg::Edge e : out.remove) unlink(e.u, e.v);
  live_.insert(live_.end(), out.insert.begin(), out.insert.end());
  return out;
}

std::vector<sbg::Edge> EdgePool::live() const {
  std::vector<sbg::Edge> out = live_;
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace pb
