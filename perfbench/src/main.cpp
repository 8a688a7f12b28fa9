// sbg_perfbench: runs one benchmark workload in this process and writes
// what it measured as raw JSON. perfbench/run.py builds it, isolates each
// run in its own temp dir and turns the raw record into metrics.
//
//   sbg_perfbench --workload <table1|serve-mixed|dyn-stream|file-ooc>
//                 --seed N --seconds S --trace 0|1 --threads T
//                 --tmp-dir DIR --out FILE
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  pb::Config cfg;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--threads") {
      cfg.threads = std::atoi(val.c_str());
    } else if (key == "--tmp-dir") {
      cfg.tmp_dir = val;
    } else if (key == "--out") {
      out = val;
    } else {
      std::fprintf(stderr, "sbg_perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (out.empty() || cfg.tmp_dir.empty() || cfg.threads < 1 ||
      cfg.seconds <= 0) {
    std::fprintf(stderr, "sbg_perfbench: need --out, --tmp-dir, --threads "
                         ">= 1 and --seconds > 0\n");
    return 2;
  }

  // Forked before the workload starts any thread.
  pb::Reference ref(cfg.threads);
  pb::Recorder rec(cfg, ref);
  try {
    if (cfg.workload == "table1") {
      pb::run_table1(rec);
    } else if (cfg.workload == "serve-mixed") {
      pb::run_serve_mixed(rec);
    } else if (cfg.workload == "dyn-stream") {
      pb::run_dyn_stream(rec);
    } else if (cfg.workload == "file-ooc") {
      pb::run_file_ooc(rec);
    } else {
      std::fprintf(stderr, "sbg_perfbench: unknown workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    rec.fail(std::string("workload threw: ") + e.what());
  }
  if (!rec.write_json(out)) {
    std::fprintf(stderr, "sbg_perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
