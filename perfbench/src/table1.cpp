// table1: the paper's CPU Table I matrix, {MM, COLOR, MIS} x {baseline,
// BRIDGE, RAND, DEGk} over the ten distinct-class Table II stand-ins, one
// job at a time in a closed loop. Each cell runs prepare_job -> execute_job
// -> verify_job, as `sbg_tool batch` does, so nearly all of its time is the
// core decomposers and the matching/coloring/mis kernels.
//
// The larger twins kron-g500-logn21 and rgg-n-2-24-s0 are left out: at
// this scale they reuse their twins' generators and would triple a pass.
#include <omp.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bridge.hpp"
#include "core/degk.hpp"
#include "core/rand.hpp"
#include "harness.hpp"
#include "sched/sched.hpp"

namespace pb {

namespace {

constexpr std::array<const char*, 10> kGraphs = {
    "c-73",         "lp1",           "Cit-Patents",      "coAuthorsCiteseer",
    "germany-osm",  "road-central",  "kron-g500-logn20", "rgg-n-2-23-s0",
    "web-Google",   "webbase-1M"};

/// Passes per end-to-end run; per-cell medians need at least three.
constexpr std::size_t kNominalPasses = 6;

struct CellOutcome {
  double seconds = 0;
  sbg::sched::JobResult result;
  std::string error;
};

CellOutcome run_cell(Recorder& rec, const sbg::sched::JobSpec& spec,
                     std::int64_t op, bool traced) {
  CellOutcome out;
  OpScope scope(op, traced);
  const double t0 = now_s();
  try {
    Span cell(rec, "table1.cell");
    sbg::sched::PreparedJob job;
    {
      Span s(rec, "sched.prepare");
      job = sbg::sched::prepare_job(spec);
    }
    sbg::sched::JobSolution sol;
    {
      Span s(rec, "sched.execute");
      out.result = sbg::sched::execute_job(job, sol);
    }
    {
      Span s(rec, "check.verify");
      out.error = sbg::sched::verify_job(job, sol);
    }
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  out.seconds = now_s() - t0;
  return out;
}

/// The decompositions each composite cell runs, with its parameters
/// (matching/coloring/mis composites.cpp): per graph three BRIDGE, three
/// RAND (heuristic k for MM and MIS, k = 2 for COLOR) and three DEGk(2).
void replay_decompositions(Recorder& rec, const sbg::CsrGraph& g,
                           std::uint64_t seed) {
  OpScope scope(-1, true);
  const sbg::vid_t k = sbg::rand_partition_heuristic(g);
  for (int i = 0; i < 3; ++i) {
    Span s(rec, "core.bridge");
    const sbg::BridgeDecomposition d = sbg::decompose_bridge(g);
  }
  for (const sbg::vid_t parts : {k, sbg::vid_t{2}, k}) {
    Span s(rec, "core.rand");
    const sbg::RandDecomposition d = sbg::decompose_rand(g, parts, seed);
  }
  for (int i = 0; i < 3; ++i) {
    Span s(rec, "core.degk");
    const sbg::DegkDecomposition d = sbg::decompose_degk(g, 2, 0);
  }
}

}  // namespace

void run_table1(Recorder& rec) {
  const Config& cfg = rec.config();
  omp_set_num_threads(cfg.threads);

  std::vector<std::pair<std::string, std::shared_ptr<const sbg::CsrGraph>>>
      graphs;
  {
    OpScope scope(-1, cfg.trace);
    for (int rep = 0; rep < cfg.setups(); ++rep) {
      graphs.clear();
      const double t0 = now_s();
      for (const char* name : kGraphs) {
        graphs.emplace_back(name, generate(rec, name, cfg));
      }
      rec.setup(now_s() - t0);
      rec.reference(true);
    }
  }

  const std::uint64_t solve_seed =
      derive_seed(cfg.seed, "table1.solve") & 0xffffffffULL;
  const std::vector<sbg::sched::JobSpec> specs =
      sbg::sched::table1_matrix(graphs, solve_seed);
  std::vector<int> cells;
  for (const auto& s : specs) cells.push_back(rec.cell(s.name));

  rec.param("passes", kNominalPasses);
  // A traced run makes two passes and traces each cell in exactly one of
  // them, so traced and untraced samples of every cell see the same
  // history; their ratio is the tracing overhead.
  const std::size_t passes = cfg.trace ? 2 : cfg.ops(kNominalPasses, 2);
  std::vector<std::uint64_t> first_hash(specs.size(), 0);
  std::vector<double> untraced_s(specs.size(), 0.0);
  std::int64_t op = 0;

  const auto check = [&](std::size_t i, const CellOutcome& out,
                         bool first_pass, const char* where) {
    const sbg::sched::JobSpec& spec = specs[i];
    if (out.result.status != sbg::sched::JobStatus::kOk) {
      rec.fail(spec.name + " " + where + ": " + out.result.error);
      return;
    }
    if (!out.error.empty()) {
      rec.fail(spec.name + " " + where + " oracle: " + out.error);
      return;
    }
    if (!sbg::sched::schedule_deterministic(spec.problem, spec.variant)) {
      return;
    }
    if (first_pass) {
      first_hash[i] = out.result.result_hash;
    } else if (out.result.result_hash != first_hash[i]) {
      rec.fail(spec.name + " " + where + ": result hash differs from pass 0");
    }
  };

  rec.begin_measure(specs.size());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::array<double, 3> rounds{};
    for (std::size_t i = 0; i < specs.size(); ++i, ++op) {
      const bool traced = cfg.trace && (i + pass) % 2 == 1;
      rec.reference();
      rec.attempt();
      const CellOutcome out = run_cell(rec, specs[i], op, traced);
      rec.op(op, cells[i], out.seconds, traced, now_s());
      if (!traced) untraced_s[i] = out.seconds;
      check(i, out, pass == 0, "pass");
      rounds[static_cast<std::size_t>(specs[i].problem)] +=
          double(out.result.rounds);
    }
    if (cfg.trace) {
      rec.value("matching.rounds", rounds[0]);
      rec.value("coloring.rounds", rounds[1]);
      rec.value("mis.rounds", rounds[2]);
    }
  }
  if (!cfg.trace) return;

  // Per-layer extras, outside the measured passes.
  for (const auto& [name, g] : graphs) {
    replay_decompositions(rec, *g, solve_seed);
  }
  // One extra single-thread pass: every deterministic variant must also
  // hash identically across thread counts.
  omp_set_num_threads(1);
  double t1 = 0, tn = 0;
  std::array<double, 3> rounds{};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rec.attempt();
    const CellOutcome out = run_cell(rec, specs[i], -1, false);
    check(i, out, false, "1-thread pass");
    t1 += out.seconds;
    tn += untraced_s[i];
    rounds[static_cast<std::size_t>(specs[i].problem)] +=
        double(out.result.rounds);
  }
  omp_set_num_threads(cfg.threads);
  rec.value("coloring.rounds", rounds[1]);
  rec.value("parallel.t1_s", t1);
  rec.value("parallel.tn_s", tn);
}

}  // namespace pb
