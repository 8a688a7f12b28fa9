// serve-mixed: an in-process serve::Server on five small Table II graphs,
// driven in a closed loop by one client per connection, two connections.
// About 88% of the requests are /v1/jobs reads (explicit Table I variants
// and "auto"), 10% are /v1/graphs/<g>/updates writes to two of the graphs
// and 2% are /metrics scrapes. Solves are short, so HTTP, queueing, the
// registry, tune and response serialisation are a large share of every
// request, and the writes beside the reads show a read-path change that
// costs updates.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <omp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "sched/sched.hpp"
#include "serve/client.hpp"
#include "serve/minijson.hpp"
#include "serve/server.hpp"

namespace pb {

namespace {

constexpr std::array<const char*, 5> kGraphs = {
    "c-73", "lp1", "coAuthorsCiteseer", "web-Google", "webbase-1M"};
/// Graphs that receive writes; reads on the others are replayed and
/// hash-compared against a direct run_job.
constexpr std::array<const char*, 2> kWriteGraphs = {"lp1", "web-Google"};
constexpr std::array<const char*, 3> kProblems = {"mm", "color", "mis"};
constexpr std::array<std::array<const char*, 5>, 3> kVariants = {{
    {"gm", "bridge-gm", "rand-gm", "degk-gm", "auto"},
    {"vb", "bridge-vb", "rand-vb", "degk-vb", "auto"},
    {"luby", "bridge", "rand", "degk2", "auto"},
}};
/// Per round: 75 reads (one per class), 9 writes and 2 scrapes, so about
/// 88% reads, 10% writes and 2% /metrics.
constexpr std::size_t kWritesPerRound = 9;
constexpr std::size_t kScrapesPerRound = 2;
constexpr double kWriteFraction = 0.001;  // of m per update batch
/// Rounds per end-to-end run: 28 x 86 requests, and p99 needs at least
/// 1000 (12 rounds).
constexpr std::size_t kNominalRounds = 28;

enum class Kind { kRead, kWrite, kMetrics };

struct Request {
  Kind kind = Kind::kRead;
  std::string graph;
  int problem = 0;
  std::string variant;
  std::uint64_t seed = 0;
  std::string target;
  std::string body;
  int cell = 0;
};

struct Reply {
  int status = 0;
  double seconds = 0;
  double end = 0;  ///< now_s() at the last response byte
  std::size_t bytes = 0;
  std::string job_status;
  std::string resolved_variant;
  bool deterministic = false;
  std::string hash;
  std::string error;
};

struct Timed {
  std::string raw;
  std::int64_t t_send = 0, t_first = 0, t_last = 0;
};

/// One request on a fresh loopback connection (the server closes each
/// connection after its response), timestamping the send, the first
/// response byte and the last.
bool timed_request(int port, const std::string& method,
                   const std::string& target, const std::string& body,
                   Timed* out, std::string* error) {
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) req += "Content-Type: application/json\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n\r\n" + body;

  out->t_send = now_ns();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0;
  if (!ok) *error = std::string("connect: ") + std::strerror(errno);
  for (std::size_t sent = 0; ok && sent < req.size();) {
    const ssize_t n =
        ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ok = false;
    } else {
      sent += static_cast<std::size_t>(n);
    }
  }
  while (ok) {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = std::string("recv: ") + std::strerror(errno);
      ok = false;
      break;
    }
    if (out->raw.empty()) out->t_first = now_ns();
    out->raw.append(chunk, static_cast<std::size_t>(n));
  }
  out->t_last = now_ns();
  ::close(fd);
  return ok;
}

/// The job fields of a /v1/jobs reply. The embedded obs report after them
/// is skipped: it is large and the checks do not need it.
std::optional<sbg::serve::JsonValue> job_fields(const std::string& body) {
  const std::size_t obs = body.find(",\"obs\":");
  return sbg::serve::parse_json(
      obs == std::string::npos ? body : body.substr(0, obs) + "}");
}

std::string edges_json(const std::vector<sbg::Edge>& edges) {
  std::string out = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i) out += ',';
    out += '[' + std::to_string(edges[i].u) + ',' +
           std::to_string(edges[i].v) + ']';
  }
  return out + "]";
}

/// Value of an unlabelled Prometheus counter; 0 when it was never bumped.
double prom_value(const std::string& text, const std::string& family) {
  const std::string key = "\n" + family + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

sbg::sched::Problem problem_of(int p) {
  return static_cast<sbg::sched::Problem>(p);
}

}  // namespace

void run_serve_mixed(Recorder& rec) {
  const Config& cfg = rec.config();
  omp_set_num_threads(1);  // the server's workers run one thread per job

  std::map<std::string, std::shared_ptr<const sbg::CsrGraph>> graphs;
  std::unique_ptr<sbg::serve::Server> server;
  {
    OpScope scope(-1, cfg.trace);
    for (int rep = 0; rep < cfg.setups(); ++rep) {
      server.reset();
      graphs.clear();
      const double t0 = now_s();
      for (const char* name : kGraphs) graphs[name] = generate(rec, name, cfg);
      sbg::serve::ServerOptions opt;
      opt.workers = cfg.threads;
      opt.per_job_threads = 1;
      opt.dataset_scale = cfg.scale;
      server = std::make_unique<sbg::serve::Server>(opt);
      std::string err;
      if (!server->start(&err)) {
        rec.fail("server start: " + err);
        return;
      }
      for (const auto& [name, g] : graphs) {
        server->registry().put(name, g, std::string("dataset:") + name);
      }
      rec.setup(now_s() - t0);
      rec.reference(true);
    }
  }
  const int port = server->port();

  // The request list, fixed by the seed before anything is timed.
  Rng rng(derive_seed(cfg.seed, "serve.requests"));
  const std::array<std::uint64_t, 2> read_seeds = {
      derive_seed(cfg.seed, "serve.read0") & 0xffffffffULL,
      derive_seed(cfg.seed, "serve.read1") & 0xffffffffULL};
  // Two connections may apply two writes to one graph out of order; that
  // only turns some of their updates into no-ops.
  std::map<std::string, EdgePool> pools;
  for (const char* g : kWriteGraphs) pools.emplace(g, EdgePool(*graphs[g]));

  rec.param("rounds", kNominalRounds);
  rec.param("writes_per_round", kWritesPerRound);
  rec.param("scrapes_per_round", kScrapesPerRound);
  rec.param("write_fraction", kWriteFraction);
  const std::size_t rounds = cfg.trace ? cfg.ops(kNominalRounds, 12) / 2
                                       : cfg.ops(kNominalRounds, 12);
  // Every round holds each read class (graph x problem x variant) once,
  // kWritesPerRound writes and kScrapesPerRound scrapes, in seeded order:
  // the mix is exact and every class is spread over the whole run.
  std::vector<Request> reqs;
  std::size_t round_size = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<Request> block;
    for (const char* graph : kGraphs) {
      for (int p = 0; p < int(kProblems.size()); ++p) {
        for (const char* variant : kVariants[static_cast<std::size_t>(p)]) {
          Request r;
          r.kind = Kind::kRead;
          r.graph = graph;
          r.problem = p;
          r.variant = variant;
          block.push_back(std::move(r));
        }
      }
    }
    for (std::size_t w = 0; w < kWritesPerRound; ++w) {
      Request r;
      r.kind = Kind::kWrite;
      r.graph = kWriteGraphs[(round * kWritesPerRound + w) %
                             kWriteGraphs.size()];
      block.push_back(std::move(r));
    }
    for (std::size_t m = 0; m < kScrapesPerRound; ++m) {
      Request r;
      r.kind = Kind::kMetrics;
      block.push_back(std::move(r));
    }
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    round_size = block.size();
    for (Request& r : block) reqs.push_back(std::move(r));
  }
  for (Request& r : reqs) {
    if (r.kind == Kind::kRead) {
      const char* problem = kProblems[static_cast<std::size_t>(r.problem)];
      r.seed = read_seeds[rng.below(read_seeds.size())];
      r.target = "/v1/jobs";
      r.body = "{\"graph\":\"" + r.graph + "\",\"problem\":\"" + problem +
               "\",\"variant\":\"" + r.variant +
               "\",\"seed\":" + std::to_string(r.seed) + "}";
      r.cell = rec.cell("read/" + r.graph + "/" + problem + "/" + r.variant);
    } else if (r.kind == Kind::kWrite) {
      const sbg::dyn::UpdateBatch b =
          pools.at(r.graph).batch(rng, kWriteFraction);
      r.target = "/v1/graphs/" + r.graph + "/updates";
      r.body = "{\"insert\":" + edges_json(b.insert) +
               ",\"delete\":" + edges_json(b.remove) + ",\"verify\":false}";
      r.cell = rec.cell("update/" + r.graph);
    } else {
      r.target = "/metrics";
      r.cell = rec.cell("metrics");
    }
  }
  const std::size_t n = reqs.size();

  // Closed loop: each connection sends its next request only after the
  // previous reply has been read in full. The clients share the host's
  // cores with the server, so half of them drive requests: with as many
  // connections as cores, clients plus busy workers oversubscribe the
  // cores and the run-to-run spread of every timing triples. The
  // connections stop together at the end of every round, where the
  // reference kernel is timed on an idle server.
  std::vector<Reply> replies(n);
  std::atomic<std::size_t> next{0};
  std::size_t round_end = 0;
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= round_end) return;
      const Request& r = reqs[i];
      const bool traced = cfg.trace && i % 2 == 1;
      OpScope scope(std::int64_t(i), traced);
      Reply& out = replies[i];
      Timed t;
      std::string err;
      bool ok;
      {
        Span span(rec, "serve.request");
        ok = timed_request(port, r.kind == Kind::kMetrics ? "GET" : "POST",
                           r.target, r.body, &t, &err);
        if (ok && traced) {
          rec.span("serve.ttfb", t.t_send, t.t_first, span.id(),
                   std::int64_t(i));
          rec.span("serve.read", t.t_first, t.t_last, span.id(),
                   std::int64_t(i));
        }
      }
      out.seconds = double(t.t_last - t.t_send) * 1e-9;
      out.end = double(t.t_last) * 1e-9;
      out.bytes = t.raw.size();
      sbg::serve::ClientResponse resp;
      if (ok && !sbg::serve::parse_http_response(t.raw, &resp, &err)) {
        ok = false;
      }
      if (!ok) {
        out.error = err;
        continue;
      }
      out.status = resp.status;
      if (r.kind == Kind::kMetrics) continue;
      const auto doc = r.kind == Kind::kRead
                           ? job_fields(resp.body)
                           : sbg::serve::parse_json(resp.body);
      if (!doc || !doc->is_object()) {
        out.error = "unparsable reply body";
        continue;
      }
      out.job_status = doc->get_string("status", "");
      out.resolved_variant = doc->get_string("resolved_variant", "");
      out.deterministic = doc->get_bool("deterministic", false);
      out.hash = doc->get_string("result_hash", "");
    }
  };

  rec.begin_measure(round_size);
  for (std::size_t start = 0; start < n; start += round_size) {
    next = start;
    round_end = std::min(n, start + round_size);
    std::vector<std::thread> clients;
    const int connections = std::max(1, cfg.threads / 2);
    for (int c = 0; c < connections; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    rec.reference(true);
  }

  // Checks, outside the timed region.
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = reqs[i];
    const Reply& out = replies[i];
    rec.attempt();
    rec.op(std::int64_t(i), r.cell, out.seconds, cfg.trace && i % 2 == 1,
           out.end);
    if (r.kind == Kind::kRead) rec.value("serve.resp_bytes", double(out.bytes));
    if (!out.error.empty() || out.status != 200) {
      rec.fail(r.target + " " + r.body.substr(0, 120) + ": HTTP " +
               std::to_string(out.status) + " " + out.error);
    } else if (r.kind != Kind::kMetrics && out.job_status != "ok") {
      rec.fail(r.target + ": status " + out.job_status);
    }
  }

  // Every deterministic read on a graph that received no writes must match
  // a direct run_job of the same (graph, problem, resolved variant, seed).
  std::map<std::tuple<std::string, int, std::string, std::uint64_t>,
           std::string>
      direct;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = reqs[i];
    const Reply& out = replies[i];
    if (r.kind != Kind::kRead || out.status != 200 || !out.deterministic ||
        pools.count(r.graph) != 0) {
      continue;
    }
    const auto key = std::make_tuple(r.graph, r.problem, out.resolved_variant,
                                     r.seed);
    auto it = direct.find(key);
    if (it == direct.end()) {
      sbg::sched::JobSpec spec;
      spec.graph_name = r.graph;
      spec.graph = graphs[r.graph];
      spec.problem = problem_of(r.problem);
      spec.variant = out.resolved_variant;
      spec.seed = r.seed;
      const sbg::sched::JobResult res = sbg::sched::run_job(spec);
      it = direct.emplace(key, res.status == sbg::sched::JobStatus::kOk
                                   ? std::to_string(res.result_hash)
                                   : "failed: " + res.error)
               .first;
    }
    if (it->second != out.hash) {
      rec.fail("read " + r.body + " hash " + out.hash +
               " != direct run_job " + it->second);
    }
  }

  // The written graphs' sessions must still be oracle-clean: an empty
  // batch with verify on checks every maintained solution.
  for (const char* g : kWriteGraphs) {
    rec.attempt();
    sbg::serve::ClientResponse resp;
    std::string err;
    const bool ok = sbg::serve::http_request(
        port, "POST", std::string("/v1/graphs/") + g + "/updates",
        "{\"verify\":true}", &resp, &err);
    const auto doc = ok ? sbg::serve::parse_json(resp.body) : std::nullopt;
    if (!ok || resp.status != 200 || !doc ||
        !doc->get_bool("verified", false)) {
      rec.fail(std::string("final verify of ") + g + ": HTTP " +
               std::to_string(resp.status) + " " + err + resp.body);
    }
  }

  if (cfg.trace) {
    sbg::serve::ClientResponse resp;
    if (sbg::serve::http_request(port, "GET", "/metrics", "", &resp)) {
      rec.value("serve.registry_hits",
                prom_value(resp.body, "sbg_serve_registry_hits_total"));
      rec.value("serve.registry_misses",
                prom_value(resp.body, "sbg_serve_registry_misses_total"));
    }
    // The traced reads again, without HTTP, on one thread like a server
    // worker: the served minus direct medians are the serving tax.
    OpScope scope(-1, true);
    for (std::size_t i = 1; i < n; i += 2) {
      const Request& r = reqs[i];
      if (r.kind != Kind::kRead) continue;
      sbg::sched::JobSpec spec;
      spec.graph_name = r.graph;
      spec.graph = graphs[r.graph];
      spec.problem = problem_of(r.problem);
      spec.variant = r.variant;
      spec.seed = r.seed;
      if (r.variant == sbg::sched::kAutoVariant) {
        Span s(rec, "tune.auto_prepare");
        sbg::sched::prepare_job(spec);
      }
      Span s(rec, "serve.direct");
      sbg::sched::run_job(spec);
    }
  }
  server->shutdown();
}

}  // namespace pb
