// file-ooc: set-up writes kron-g500-logn20 as a MatrixMarket file and
// road-central as a SNAP edge list. Each op loads one file with
// ingest::load, alternately cold (no .sbgc: parse, then write the cache)
// and warm (cache hit), then solves it with sched::run_job on ooc-rand-gm
// or ooc-degk-gm under an SBG_MEM_BUDGET of a quarter of the file's
// smaller plan working set. It is the only workload that parses text,
// writes and maps the cache, spills pieces and runs the prefetch thread.
#include <omp.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dyn/session.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "ingest/cache.hpp"
#include "ingest/ingest.hpp"
#include "ooc/ooc.hpp"
#include "sched/sched.hpp"

namespace pb {

namespace {

struct InputFile {
  const char* graph;
  const char* file;
};
constexpr std::array<InputFile, 2> kInputs = {{
    {"kron-g500-logn20", "kron-g500-logn20.mtx"},
    {"road-central", "road-central.el"},
}};
constexpr std::array<const char*, 2> kVariants = {"ooc-rand-gm", "ooc-degk-gm"};
constexpr std::array<sbg::ooc::PieceFamily, 2> kFamilies = {
    sbg::ooc::PieceFamily::kRand, sbg::ooc::PieceFamily::kDegk};
/// Rounds per end-to-end run; a round is a cold and a warm op for every
/// (file, variant) pair.
constexpr std::size_t kNominalRounds = 12;
/// SBG_MEM_BUDGET is the smaller plan working set of a file over this.
constexpr std::uint64_t kBudgetDivisor = 4;

sbg::ooc::PlanOptions plan_options(std::size_t variant, std::uint64_t seed,
                                   std::uint64_t budget) {
  sbg::ooc::PlanOptions po;
  po.family = kFamilies[variant];
  po.engine = sbg::ooc::Engine::kGM;
  po.seed = seed;
  po.mem_budget = budget;
  return po;
}

}  // namespace

void run_file_ooc(Recorder& rec) {
  const Config& cfg = rec.config();
  omp_set_num_threads(cfg.threads);
  const std::uint64_t solve_seed =
      derive_seed(cfg.seed, "file.solve") & 0xffffffffULL;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> budgets;  // per file
  {
    OpScope scope(-1, cfg.trace);
    for (int rep = 0; rep < cfg.setups(); ++rep) {
      paths.clear();
      budgets.clear();
      const double t0 = now_s();
      for (const InputFile& in : kInputs) {
        const auto g = generate(rec, in.graph, cfg);
        const std::string path = cfg.tmp_dir + "/" + in.file;
        {
          Span span(rec, "io.save_graph");
          sbg::save_graph(path, *g);
        }
        paths.push_back(path);
        const auto src = sbg::ooc::CsrSource::from_graph(*g);
        std::uint64_t budget = 0;
        for (std::size_t v = 0; v < kVariants.size(); ++v) {
          const std::uint64_t ws =
              sbg::ooc::plan_ooc(src, plan_options(v, solve_seed, 0))
                  .total_working_set;
          if (budget == 0 || ws / kBudgetDivisor < budget) {
            budget = ws / kBudgetDivisor;
          }
        }
        budgets.push_back(budget);
      }
      rec.setup(now_s() - t0);
      rec.reference(true);
    }
  }
  std::vector<int> cells;  // [file][variant][cold=0|warm=1]
  for (const InputFile& in : kInputs) {
    for (const char* v : kVariants) {
      for (const char* mode : {"cold", "warm"}) {
        cells.push_back(
            rec.cell(std::string(in.file) + "/" + v + "/" + mode));
      }
    }
  }

  rec.param("rounds", kNominalRounds);
  rec.param("mem_budget_divisor", kBudgetDivisor);
  const std::size_t rounds = cfg.trace ? cfg.ops(kNominalRounds, 2) / 2
                                       : cfg.ops(kNominalRounds, 2);
  // Hashes of the cold op of each (file, variant): the warm op must match.
  std::map<std::pair<std::size_t, std::size_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      cold_hash;
  std::int64_t op = 0;
  rec.begin_measure(cells.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t f = 0; f < kInputs.size(); ++f) {
      for (std::size_t v = 0; v < kVariants.size(); ++v) {
        for (int warm = 0; warm < 2; ++warm, ++op) {
          const std::string& path = paths[f];
          // Read by the ooc variants on every solve; no other thread is
          // running between ops.
          setenv("SBG_MEM_BUDGET", std::to_string(budgets[f]).c_str(), 1);
          if (!warm) {
            std::remove(sbg::ingest::cache_path_for(
                            path, sbg::ingest::options_hash({}))
                            .c_str());
          }
          rec.reference();
          // Each cell is traced in every other round.
          const bool traced = cfg.trace && (r + f + v) % 2 == 1;
          rec.attempt();
          sbg::ingest::LoadReport report;
          std::shared_ptr<const sbg::CsrGraph> g;
          sbg::sched::JobResult res;
          std::string error;
          double t0 = 0, end = 0;
          {
            OpScope scope(op, traced);
            t0 = now_s();
            try {
              Span span(rec, "file.op");
              {
                Span s(rec, warm ? "ingest.load_warm" : "ingest.load_cold");
                g = sbg::ingest::load_shared(path, {}, &report);
              }
              sbg::sched::JobSpec spec;
              spec.name = path + "/" + kVariants[v];
              spec.graph_name = kInputs[f].graph;
              spec.graph = g;
              spec.problem = sbg::sched::Problem::kMM;
              spec.variant = kVariants[v];
              spec.seed = solve_seed;
              Span s(rec, "sched.run_job");
              res = sbg::sched::run_job(spec);
            } catch (const std::exception& e) {
              error = std::string("threw: ") + e.what();
            }
            end = now_s();
          }
          const int cell = cells[(f * kVariants.size() + v) * 2 + warm];
          rec.op(op, cell, end - t0, traced, end);
          const std::string what = std::string(kInputs[f].file) + "/" +
                                   kVariants[v] + (warm ? "/warm" : "/cold");
          if (!error.empty() || res.status != sbg::sched::JobStatus::kOk) {
            rec.fail(what + ": " + error + res.error);
            continue;
          }
          if (report.cache_hit != bool(warm)) {
            rec.fail(what + ": cache " + (report.cache_hit ? "hit" : "miss") +
                     " on a " + (warm ? "warm" : "cold") + " load");
          }
          if (traced && !warm) {
            rec.value("ingest.parse_bytes", double(report.bytes_parsed));
          }
          const auto hashes =
              std::make_pair(sbg::dyn::hash_graph(*g), res.result_hash);
          if (!warm) {
            cold_hash[{f, v}] = hashes;
          } else if (cold_hash.count({f, v}) == 0 ||
                     cold_hash[{f, v}] != hashes) {
            rec.fail(what + ": graph or result hash differs from cold load");
          }
        }
      }
    }
  }
  if (!cfg.trace) return;

  // The ooc layers behind each solve, one public call at a time.
  OpScope scope(-1, true);
  for (std::size_t f = 0; f < kInputs.size(); ++f) {
    const auto g = sbg::ingest::load_shared(paths[f]);
    const auto src = sbg::ooc::CsrSource::from_graph(*g);
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      for (std::size_t r = 0; r < rounds; ++r) {
        sbg::ooc::Plan plan;
        {
          Span s(rec, "ooc.plan");
          plan = sbg::ooc::plan_ooc(src,
                                    plan_options(v, solve_seed, budgets[f]));
        }
        sbg::ooc::OocResult res;
        {
          Span s(rec, "ooc.run");
          res = sbg::ooc::run_ooc(src, plan);
        }
        if (res.status != sbg::ooc::RunStatus::kOk) {
          rec.fail(std::string("run_ooc on ") + kInputs[f].file + ": " +
                   res.error);
        }
        rec.value("ooc.prefetch_hits", double(res.prefetch_hits));
        rec.value("ooc.prefetch_stalls", double(res.prefetch_stalls));
        rec.value("ooc.moved_bytes", double(res.actual_bytes_moved));
        rec.value("ooc.peak_over_budget",
                  double(res.peak_resident_bytes) / double(budgets[f]));
      }
    }
  }
}

}  // namespace pb
