// dyn-stream: one dyn::Session each on road-central (sparse) and
// kron-g500-logn20 (dense, power-law), fed seeded update batches of 0.1%
// and 1% of m through sched::run_update_job with verify off, long enough
// to compact each session many times. The batches are double edge swaps
// (EdgePool), so m and the degree sequence stay the named graph's for the
// whole stream. Nearly all of its time is dyn apply and repair plus the
// compaction re-peel (core/kcore), which the other workloads barely touch.
#include <omp.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "coloring/coloring.hpp"
#include "dyn/dyn_graph.hpp"
#include "dyn/repair.hpp"
#include "dyn/session.hpp"
#include "harness.hpp"
#include "matching/matching.hpp"
#include "mis/mis.hpp"
#include "sched/sched.hpp"

namespace pb {

namespace {

constexpr std::array<const char*, 2> kGraphs = {"road-central",
                                                "kron-g500-logn20"};
constexpr std::array<double, 2> kFractions = {0.001, 0.01};
constexpr std::array<const char*, 2> kFractionNames = {"0.1%", "1%"};
/// Batches per end-to-end run, alternating between the two sessions.
constexpr std::size_t kNominalBatches = 4000;

struct Stream {
  std::string name;
  std::shared_ptr<const sbg::CsrGraph> base;
  std::unique_ptr<EdgePool> pool;  ///< the session's live edges
  std::shared_ptr<sbg::dyn::Session> session;
  std::array<int, 2> cells{};
};

/// The session's work, one public layer call at a time: DynGraph::apply
/// and the three repair_* kernels, on a fresh copy of the base.
void replay_layers(Recorder& rec, const Stream& s, std::uint64_t seed,
                   const std::vector<sbg::dyn::UpdateBatch>& batches) {
  OpScope scope(-1, true);
  sbg::dyn::DynGraph g(s.base);
  std::vector<sbg::vid_t> mate(s.base->num_vertices(), sbg::kNoVertex);
  sbg::gm_extend(*s.base, mate);
  std::vector<std::uint32_t> color = sbg::color_vb(*s.base).color;
  std::vector<sbg::MisState> state(s.base->num_vertices(),
                                   sbg::MisState::kUndecided);
  sbg::greedy_extend(*s.base, state, seed);
  for (std::size_t j = 0; j < batches.size(); ++j) {
    const std::uint64_t before = g.compactions();
    const std::int64_t t0 = now_ns();
    sbg::dyn::EdgeDelta delta;
    {
      Span span(rec, "dyn.apply");
      delta = g.apply(batches[j]);
    }
    if (g.compactions() != before) {
      rec.value("dyn.compact_ms", double(now_ns() - t0) * 1e-6);
    }
    sbg::dyn::RepairStats mm, col, mis;
    {
      Span span(rec, "dyn.repair_mm");
      mm = sbg::dyn::repair_matching(g, delta, mate);
    }
    {
      Span span(rec, "dyn.repair_color");
      col = sbg::dyn::repair_coloring(g, delta, color);
    }
    {
      Span span(rec, "dyn.repair_mis");
      mis = sbg::dyn::repair_mis(g, delta, state, seed + j);
    }
    rec.value("dyn.frontier",
              double(mm.frontier + col.frontier + mis.frontier));
    rec.value("dyn.repaired",
              double(mm.repaired + col.repaired + mis.repaired));
  }
  rec.value("dyn.compactions", double(g.compactions()));
}

}  // namespace

void run_dyn_stream(Recorder& rec) {
  const Config& cfg = rec.config();
  omp_set_num_threads(cfg.threads);
  const std::uint64_t session_seed =
      derive_seed(cfg.seed, "dyn.session") & 0xffffffffULL;

  std::vector<Stream> streams;
  {
    OpScope scope(-1, cfg.trace);
    for (int rep = 0; rep < cfg.setups(); ++rep) {
      streams.clear();
      const double t0 = now_s();
      for (const char* name : kGraphs) {
        Stream s;
        s.name = name;
        s.base = generate(rec, name, cfg);
        sbg::dyn::SessionOptions opt;
        opt.seed = session_seed;
        Span span(rec, "dyn.open_session");
        s.session = std::make_shared<sbg::dyn::Session>(s.base, opt);
        streams.push_back(std::move(s));
      }
      rec.setup(now_s() - t0);
      rec.reference(true);
    }
  }
  for (Stream& s : streams) {
    s.pool = std::make_unique<EdgePool>(*s.base);
    for (std::size_t f = 0; f < kFractions.size(); ++f) {
      s.cells[f] = rec.cell(s.name + "/" + kFractionNames[f]);
    }
  }

  rec.param("batches", kNominalBatches);
  rec.param("batch_fractions", {kFractions.begin(), kFractions.end()});
  const std::size_t n = cfg.trace ? cfg.ops(kNominalBatches, 1000) / 2
                                  : cfg.ops(kNominalBatches, 1000);
  Rng rng(derive_seed(cfg.seed, "dyn.batches"));
  std::vector<std::vector<sbg::dyn::UpdateBatch>> kept(streams.size());
  // Batches alternate between the sessions; each session takes its two
  // batch sizes in seeded order within every pair of its batches.
  std::vector<std::size_t> first_size(streams.size(), 0);
  rec.begin_measure(2 * streams.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % streams.size();
    const std::size_t j = i / streams.size();
    Stream& s = streams[k];
    if (j % 2 == 0) first_size[k] = rng.below(2);
    const std::size_t f = first_size[k] ^ (j % 2);
    sbg::sched::UpdateJobSpec spec;
    spec.name = s.name + "/updates/" + std::to_string(i);
    spec.graph_name = s.name;
    spec.session = s.session;
    rec.reference();
    const double gen0 = now_s();
    spec.batch = s.pool->batch(rng, kFractions[f]);
    rec.gap(gen0, now_s());
    spec.verify = false;
    // The second batch of every pair is traced.
    const bool traced = cfg.trace && j % 2 == 1;
    if (cfg.trace) kept[k].push_back(spec.batch);

    rec.attempt();
    sbg::sched::UpdateJobResult res;
    double t0 = 0, end = 0;
    {
      OpScope scope(std::int64_t(i), traced);
      t0 = now_s();
      {
        Span span(rec, "sched.update_job");
        res = sbg::sched::run_update_job(spec);
      }
      end = now_s();
    }
    rec.op(std::int64_t(i), s.cells[f], end - t0, traced, end);
    if (res.status != sbg::sched::JobStatus::kOk) {
      rec.fail(spec.name + ": " + res.error);
    }
  }

  // Each session's final graph must hold exactly the pool's live edges, and
  // its final state must be oracle-clean on it.
  for (const Stream& s : streams) {
    const sbg::CsrGraph g = s.session->materialized();
    rec.attempt();
    if (EdgePool(g).live() != s.pool->live()) {
      rec.fail(s.name + " final graph: edge set differs from the stream's");
    }
    const auto mm = sbg::check::check_matching(g, s.session->mate());
    const auto col = sbg::check::check_coloring(g, s.session->color());
    const auto mis = sbg::check::check_mis(g, s.session->mis_state());
    rec.attempt(3);
    if (!mm.result) rec.fail(s.name + " final mm: " + mm.result.message());
    if (!col.result) rec.fail(s.name + " final color: " + col.result.message());
    if (!mis.result) rec.fail(s.name + " final mis: " + mis.result.message());
  }
  if (!cfg.trace) return;

  double heap = 0;
  for (const Stream& s : streams) heap += double(s.session->heap_bytes());
  rec.value("dyn.heap_mb", heap / (1024.0 * 1024.0));
  for (std::size_t k = 0; k < streams.size(); ++k) {
    replay_layers(rec, streams[k], session_seed, kept[k]);
  }
}

}  // namespace pb
