// Shared plumbing for the sbg benchmark program: run configuration, the
// per-run record that is written out as raw JSON for perfbench/stats.py,
// seeded randomness, and the in-memory span recorder used by traced runs.
//
// The program only calls the library's public functions; every span is
// recorded here, around those calls, never inside src/.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dyn/dyn_graph.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"

namespace pb {

/// Fixed parameters shared by every workload (see perfbench/workloads.json).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;   ///< requested measurement length
  bool trace = false;    ///< per-layer profile instead of end-to-end run
  int threads = 4;       ///< OpenMP threads = client connections, <= nproc
  double scale = 1.0 / 64.0;
  std::string tmp_dir;   ///< per-run scratch; removed by run.py at exit

  /// Op count for a workload whose nominal count fills the default run
  /// length: fixed for a given --seconds, never adapted to elapsed time.
  std::size_t ops(std::size_t nominal, std::size_t minimum) const;
  /// Set-up repetitions: setup_s is their median. A traced run sets up once.
  static constexpr int kSetupRepetitions = 3;
  int setups() const { return trace ? 1 : kSetupRepetitions; }
};

std::int64_t now_ns();
double now_s();

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from the workload seed and a tag.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag);

// --------------------------------------------------------------- spans --

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t op = -1;      ///< op index the span belongs to, -1 = none
};

class Recorder;

/// Marks the calling thread as working on op `op`; spans opened while it is
/// alive are recorded only when `traced` is set.
class OpScope {
 public:
  OpScope(std::int64_t op, bool traced);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::int64_t prev_op_;
  bool prev_traced_;
  std::uint32_t prev_parent_;
};

/// RAII span around one public call. Free when the thread is not traced.
class Span {
 public:
  Span(Recorder& rec, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Recorder* rec_ = nullptr;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t prev_parent_ = 0;
  std::int64_t start_ns_ = 0;
};

// ----------------------------------------------------------- reference --

/// Host speed probe. The host's speed for memory-bound parallel code drifts
/// by tens of percent over minutes with load the benchmark does not
/// control. A fixed kernel, random reads over a 32 MiB buffer on the run's
/// thread count, is timed between the measured ops, and stats.py reports
/// every end-to-end timing of the run at the kernel's nominal speed. The
/// kernel runs in a helper process forked before any thread exists, so its
/// buffer never counts in the run's peak RSS and it never shares the run's
/// heap or OpenMP pool.
class Reference {
 public:
  explicit Reference(int threads);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;
  /// Run the kernel once; its per-thread CPU time in seconds (the median
  /// over threads), or -1 when the helper is gone.
  double sample();

 private:
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

// -------------------------------------------------------------- record --

/// Everything one run measured, written as raw JSON at exit.
class Recorder {
 public:
  Recorder(Config cfg, Reference& ref) : cfg_(std::move(cfg)), ref_(&ref) {}
  const Config& config() const { return cfg_; }

  /// Intern an op class ("cell"): ops of one cell do identical work.
  int cell(const std::string& name);
  void setup(double seconds) { setup_s_.push_back(seconds); }
  /// Start of the measured ops. A round is the shortest run of ops that
  /// visits every cell once; throughput is taken over whole rounds.
  void begin_measure(std::size_t round_ops);
  /// One measured op that finished at now_s() == `end`; `id` matches the
  /// op of the spans recorded under it.
  void op(std::int64_t id, int cell, double seconds, bool traced,
          double end);

  /// Time the reference kernel if kReferencePeriod has passed since the
  /// last sample, or always with `force`. Call only between ops, when the
  /// run itself is idle.
  void reference(bool force = false);
  /// Mark [start, end) (now_s() values) as the benchmark's own work between
  /// measured ops (reference samples, input generation): throughput leaves
  /// it out.
  void gap(double start, double end);

  void attempt(std::uint64_t n = 1);
  /// Count one failed op (non-200, cancellation, throw, failed check).
  void fail(const std::string& what);

  /// A fixed parameter of the workload, written into the raw record; run.py
  /// requires it to equal its entry in perfbench/workloads.json.
  void param(const std::string& name, double v);
  void param(const std::string& name, const std::vector<double>& vs);

  /// Raw per-layer values, aggregated by stats.py.
  void value(const std::string& name, double v);

  /// Record a span with explicit bounds (client-side HTTP phases).
  void span(const std::string& name, std::int64_t start_ns,
            std::int64_t end_ns, std::uint32_t parent, std::int64_t op);

  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  std::uint32_t next_span_id();
  Config cfg_;
  Reference* ref_;
  double last_reference_ = -1e300;
  std::vector<double> reference_s_;
  std::vector<std::pair<double, double>> gaps_;
  mutable std::mutex mu_;
  std::vector<std::string> cells_;
  std::map<std::string, int> cell_index_;
  struct Op {
    std::int64_t id;
    int cell;
    double seconds;
    bool traced;
    double end;
  };
  std::vector<Op> ops_;
  std::vector<double> setup_s_;
  double measure_start_ = 0;
  std::size_t round_ops_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::string> params_;  ///< name -> JSON value
  std::map<std::string, std::vector<double>> values_;
  std::vector<SpanRecord> spans_;
  std::uint32_t next_span_ = 1;
};

/// Span-wrapped make_dataset: every workload's set-up generates its graphs
/// through this, so graph.generate_s sees them all.
std::shared_ptr<const sbg::CsrGraph> generate(Recorder& rec,
                                              const std::string& name,
                                              const Config& cfg);

/// The live edge set of a graph under a stream of seeded update batches.
/// A batch is made of double edge swaps: two live edges (a, b) and (c, d)
/// are deleted and (a, d) and (c, b), absent so far, inserted. Every vertex
/// keeps its degree, so m and the degree sequence stay those of the
/// generated graph however long the stream runs, while the inserted edges
/// are new ones that build up in the dynamic graph's delta overlay.
class EdgePool {
 public:
  explicit EdgePool(const sbg::CsrGraph& g);
  /// About `fraction` of m updates, half inserts and half deletes; the pool
  /// assumes the batches are applied in the order they are drawn.
  sbg::dyn::UpdateBatch batch(Rng& rng, double fraction);
  /// The live edges, (u < v), sorted.
  std::vector<sbg::Edge> live() const;

 private:
  bool has(sbg::vid_t x, sbg::vid_t y) const;
  void unlink(sbg::vid_t x, sbg::vid_t y);
  std::vector<sbg::Edge> live_;  ///< (u < v), in no order
  /// Neighbours of each vertex over live_ plus this batch's
  /// deletes, so that no insert names an edge the batch also deletes
  /// (apply() puts inserts before removes, so it would end up absent).
  std::vector<std::vector<sbg::vid_t>> adj_;
};

/// Peak resident set of this process in MiB.
double peak_rss_mb();

// Workloads (one translation unit each).
void run_table1(Recorder& rec);
void run_serve_mixed(Recorder& rec);
void run_dyn_stream(Recorder& rec);
void run_file_ooc(Recorder& rec);

}  // namespace pb
