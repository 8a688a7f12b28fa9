"""Statistics and metric definitions for the sbg benchmark.

The C++ program (perfbench/src) writes one raw record per run: every op's
cell and latency, set-up times, failure counts, raw per-layer values and,
in traced runs, spans. This module turns those records into the metrics
named in BENCHMARK.json. It has no dependencies beyond the standard
library so that perfbench/test_stats.py can exercise every rule directly.

A cell is a class of ops that do identical work (a Table I job, a request
class, a batch size on one graph, a file/variant/cache-state triple).
Timings are first reduced to one median per cell and only then combined,
so no end-to-end number is a percentile over a mix of different cells;
throughput is a median over windows of whole rounds of ops.

The host's speed for memory-bound parallel code drifts by tens of percent
over minutes. Each run times a fixed reference kernel between its ops
(perfbench/src/harness.hpp, Reference), and every end-to-end timing is
reported at the kernel's nominal speed: divided by the run's host factor,
the median kernel time over REFERENCE_NOMINAL_S.
"""

import math
import statistics

# Below this many samples a 99th percentile rests on fewer than ten points
# beyond it, so it is refused rather than reported.
P99_MIN_SAMPLES = 1000
# Throughput is the median over about this many windows of whole rounds.
THROUGHPUT_WINDOWS = 8
# Typical median time of the reference kernel on the host the benchmark was
# tuned on (4 vCPUs of a Xeon with a 105 MiB L3, 4 threads, median over the
# runs of 3.3-4.0 ms); end-to-end timings are reported at this speed.
REFERENCE_NOMINAL_S = 0.0035


def median(xs):
    xs = list(xs)
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def percentile(xs, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(xs, q=99.0, min_samples=P99_MIN_SAMPLES):
    """The q-th percentile, or None when there are too few samples."""
    xs = list(xs)
    if len(xs) < min_samples:
        return None
    return percentile(xs, q)


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def fail_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def drift_ratio(latencies_in_order):
    """Median of the last tenth of the samples over the first tenth."""
    xs = list(latencies_in_order)
    tenth = len(xs) // 10
    if tenth < 1:
        raise ValueError("drift needs at least ten samples")
    return median(xs[-tenth:]) / median(xs[:tenth])


def cell_samples(ops, traced=None):
    """{cell: [seconds, ...]} from raw ops [cell, seconds, traced, id, end];
    traced=None keeps every op, True/False only traced/untraced ones."""
    out = {}
    for cell, seconds, was_traced, *_ in ops:
        if traced is None or bool(was_traced) == traced:
            out.setdefault(cell, []).append(seconds)
    return out


def cell_medians(ops, traced=None):
    return {c: median(xs) for c, xs in cell_samples(ops, traced).items()}


def host_factor(reference_s, nominal=REFERENCE_NOMINAL_S):
    """How much slower than nominal the host ran during a run: the median
    of its reference kernel times over the nominal time."""
    return median(reference_s) / nominal


def overlap(lo, hi, gaps):
    """Seconds of [lo, hi) covered by the disjoint intervals `gaps`."""
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in gaps)


def windowed_throughput(ends, round_ops, gaps=(),
                        windows=THROUGHPUT_WINDOWS):
    """Ops per second as the median over consecutive windows of whole
    rounds (a round visits every cell once, so windows do equal work).
    `ends` are op completion times since the measurement began; `gaps`
    are the intervals the benchmark spent on its own work between ops,
    left out of each window's time. A host slowdown covering fewer than
    half of the windows does not move it."""
    ends = sorted(ends)
    rounds = len(ends) // round_ops
    if rounds < 1:
        raise ValueError("throughput needs at least one whole round")
    per_window = max(1, rounds // windows) * round_ops
    rates, start = [], 0.0
    for k in range(per_window, len(ends) + 1, per_window):
        end = ends[k - 1]
        rates.append(per_window / (end - start - overlap(start, end, gaps)))
        start = end
    return median(rates)


def row_total(medians, cells, keep):
    """Sum of the per-cell medians of the cells whose name passes keep()."""
    return sum(m for c, m in medians.items() if keep(cells[c]))


def self_times(spans):
    """{span id: self seconds}: each span's duration minus the part of its
    interval that its child spans cover. Spans are raw
    [id, parent, name, start_ns, end_ns, op] records."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start - covered) * 1e-9
    return out


def span_self(raw, name, ops=None):
    """Self seconds of every span called `name`, optionally only those
    belonging to the op ids in `ops`."""
    if "_self" not in raw:
        raw["_self"] = self_times(raw["spans"])
    st = raw["_self"]
    return [st[s[0]] for s in raw["spans"]
            if s[2] == name and (ops is None or s[5] in ops)]


# --------------------------------------------------------- end to end --

def end_to_end(raw):
    """{name: (value, unit)} for every end-to-end metric, timings at the
    reference kernel's nominal speed."""
    ops = raw["ops"]
    samples = cell_samples(ops)
    medians = {c: median(xs) for c, xs in samples.items()}
    f = host_factor(raw["reference_s"])
    # One round of ops, each at its cell's median: a Table I pass is the
    # sum of the per-cell medians.
    rounds = len(ops) / raw["round_ops"]
    pass_s = sum(medians[c] * len(xs) for c, xs in samples.items()) / rounds
    ops_per_s = windowed_throughput([op[4] for op in ops], raw["round_ops"],
                                    raw["gaps"])
    return {
        "setup_s": (median(raw["setup_s"]) / f, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ops_per_s": (ops_per_s * f, "1/s"),
        "pass_s": (pass_s / f, "s"),
        "cell_geomean_ms": (geomean(medians.values()) * 1e3 / f, "ms"),
    }


def workload_detail(raw):
    """The workload-specific figures printed beside the gated metrics: the
    failure ratio, the host factor, and (at nominal speed) Table I row
    totals or per-op latency percentiles."""
    cells = raw["cells"]
    ops = raw["ops"]
    f = host_factor(raw["reference_s"])
    out = {"fail_ratio": (fail_ratio(raw["failed"], raw["attempted"]),
                          "ratio"),
           "reference_ms": (median(raw["reference_s"]) * 1e3, "ms"),
           "host_factor": (f, "ratio")}
    if raw["workload"] == "table1":
        medians = cell_medians(ops)
        for problem in ("mm", "color", "mis"):
            out[problem + "_s"] = (row_total(
                medians, cells,
                lambda name, p=problem: name.split("/")[1] == p) / f, "s")
        return out
    lat = [op[1] for op in ops]
    out["p50_ms"] = (percentile(lat, 50) * 1e3 / f, "ms")
    p99 = tail_percentile(lat)
    if p99 is not None:
        out["p99_ms"] = (p99 * 1e3 / f, "ms")
    return out


# ---------------------------------------------------------- per layer --

def trace_overhead(raw):
    """Traced over untraced time: per-cell medians of the traced and of the
    untraced samples, summed over cells that have both."""
    t = cell_medians(raw["ops"], traced=True)
    u = cell_medians(raw["ops"], traced=False)
    both = [c for c in t if c in u]
    return sum(t[c] for c in both) / sum(u[c] for c in both)


def _ms(xs):
    return sum(xs) * 1e3


def _median_ms(xs):
    return median(xs) * 1e3


def _table1(raw):
    cells = raw["cells"]
    vals = raw["values"]
    cell_of = {op[3]: cells[op[0]] for op in raw["ops"]}

    def ops_where(keep):
        return {i for i, name in cell_of.items() if keep(name)}

    baseline = {"mm": "gm", "color": "vb", "mis": "luby"}
    composite = ops_where(
        lambda n: baseline[n.split("/")[1]] != n.split("/")[2])
    prep = _ms(span_self(raw, "sched.prepare"))
    execute = _ms(span_self(raw, "sched.execute"))
    verify = _ms(span_self(raw, "check.verify"))
    core = {k: _ms(span_self(raw, "core." + k))
            for k in ("bridge", "rand", "degk")}
    color_rounds = vals["coloring.rounds"]
    out = {
        "sched.prepare_ms": (prep, "ms"),
        "sched.execute_ms": (execute, "ms"),
        "check.verify_ms": (verify, "ms"),
        "check.verify_share": (verify / (prep + execute + verify), "ratio"),
        "core.bridge_ms": (core["bridge"], "ms"),
        "core.rand_ms": (core["rand"], "ms"),
        "core.degk_ms": (core["degk"], "ms"),
        "core.decompose_share": (
            sum(core.values())
            / _ms(span_self(raw, "sched.execute", composite)), "ratio"),
        "matching.rounds": (median(vals["matching.rounds"]), "count"),
        "mis.rounds": (median(vals["mis.rounds"]), "count"),
        "coloring.rounds": (median(color_rounds), "count"),
        "coloring.rounds_spread": (
            (max(color_rounds) - min(color_rounds)) / median(color_rounds),
            "ratio"),
        "parallel.t1_over_tn": (
            vals["parallel.t1_s"][0] / vals["parallel.tn_s"][0], "ratio"),
    }
    for metric, (problem, variant) in {
            "matching.gm_ms": ("mm", "gm"),
            "coloring.vb_ms": ("color", "vb"),
            "mis.luby_ms": ("mis", "luby")}.items():
        ids = ops_where(lambda n, p=problem, v=variant:
                        n.split("/")[1:] == [p, v])
        out[metric] = (_ms(span_self(raw, "sched.execute", ids)), "ms")
    return out


def _serve(raw):
    cells = raw["cells"]
    vals = raw["values"]
    ops = sorted(raw["ops"], key=lambda op: op[3])
    traced = [op for op in ops if op[2]]

    def latencies(prefix, rows):
        return [op[1] for op in rows if cells[op[0]].startswith(prefix)]

    served = median(latencies("read/", traced)) * 1e3
    direct = _median_ms(span_self(raw, "serve.direct"))
    hits = vals["serve.registry_hits"][0]
    misses = vals["serve.registry_misses"][0]
    return {
        "serve.ttfb_ms": (_median_ms(span_self(raw, "serve.ttfb")), "ms"),
        "serve.read_ms": (_median_ms(span_self(raw, "serve.read")), "ms"),
        "serve.resp_bytes": (median(vals["serve.resp_bytes"]), "bytes"),
        "serve.job_ms": (served, "ms"),
        "serve.update_ms": (median(latencies("update/", traced)) * 1e3, "ms"),
        "serve.metrics_ms": (median(latencies("metrics", traced)) * 1e3, "ms"),
        "serve.direct_ms": (direct, "ms"),
        "serve.tax_ms": (served - direct, "ms"),
        "serve.drift_ratio": (drift_ratio(latencies("read/", ops)), "ratio"),
        "serve.registry_hit_ratio": (hits / (hits + misses), "ratio"),
        "tune.auto_prepare_ms": (
            _median_ms(span_self(raw, "tune.auto_prepare")), "ms"),
    }


def _dyn(raw):
    vals = raw["values"]
    return {
        "dyn.apply_ms": (_median_ms(span_self(raw, "dyn.apply")), "ms"),
        "dyn.repair_mm_ms": (
            _median_ms(span_self(raw, "dyn.repair_mm")), "ms"),
        "dyn.repair_color_ms": (
            _median_ms(span_self(raw, "dyn.repair_color")), "ms"),
        "dyn.repair_mis_ms": (
            _median_ms(span_self(raw, "dyn.repair_mis")), "ms"),
        "dyn.frontier": (median(vals["dyn.frontier"]), "count"),
        "dyn.repaired_ratio": (
            sum(vals["dyn.repaired"]) / sum(vals["dyn.frontier"]), "ratio"),
        "dyn.compact_ms": (median(vals["dyn.compact_ms"]), "ms"),
        "dyn.compactions": (sum(vals["dyn.compactions"]), "count"),
        "dyn.heap_mb": (vals["dyn.heap_mb"][0], "MB"),
    }


def _file(raw):
    vals = raw["values"]
    cold = span_self(raw, "ingest.load_cold")
    hits = sum(vals["ooc.prefetch_hits"])
    stalls = sum(vals["ooc.prefetch_stalls"])
    return {
        "ingest.parse_ms": (_median_ms(cold), "ms"),
        "ingest.parse_mb_per_s": (
            sum(vals["ingest.parse_bytes"]) / sum(cold) / 1e6, "MB/s"),
        "ingest.cache_load_ms": (
            _median_ms(span_self(raw, "ingest.load_warm")), "ms"),
        "ooc.plan_ms": (_median_ms(span_self(raw, "ooc.plan")), "ms"),
        "ooc.run_ms": (_median_ms(span_self(raw, "ooc.run")), "ms"),
        "ooc.prefetch_hit_ratio": (
            hits / (hits + stalls) if hits + stalls else 0.0, "ratio"),
        "ooc.moved_mb": (median(vals["ooc.moved_bytes"]) / 2**20, "MB"),
        "ooc.peak_over_budget": (max(vals["ooc.peak_over_budget"]), "ratio"),
    }


LAYERS = {
    "table1": _table1,
    "serve-mixed": _serve,
    "dyn-stream": _dyn,
    "file-ooc": _file,
}


def per_layer(raws):
    """{name: (value, unit)} for every per-layer metric, from one traced
    raw record per workload ({workload: raw})."""
    out = {"graph.generate_s": (sum(sum(span_self(r, "graph.generate"))
                                    for r in raws.values()), "s")}
    for workload, fn in LAYERS.items():
        raw = raws[workload]
        out.update(fn(raw))
        out["trace.overhead_ratio." + workload] = (trace_overhead(raw),
                                                   "ratio")
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_params(params, documented):
    """The fixed parameters a run reports (the program's constants) must be
    exactly the numeric entries of its workload in perfbench/workloads.json
    (`documented`: its "common" and "parameters" merged). Returns the
    problems."""
    want = {k: v for k, v in documented.items()
            if _is_number(v) or (isinstance(v, list) and v
                                 and all(_is_number(x) for x in v))}
    problems = []
    for name in sorted(set(want) | set(params)):
        if name not in params:
            problems.append("parameter %s is documented but not reported"
                            % name)
        elif name not in want:
            problems.append("parameter %s = %r is not in workloads.json"
                            % (name, params[name]))
        elif params[name] != want[name]:
            problems.append("parameter %s is %r, workloads.json says %r"
                            % (name, params[name], want[name]))
    return problems


def check_against_spec(metrics, spec):
    """Names and units of `metrics` must be exactly those of the spec list
    (BENCHMARK.json end_to_end or per_layer). Returns the problems."""
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: unit for name, (_, unit) in metrics.items()}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("missing metric " + name)
        elif name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
        elif want[name] != got[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    return problems
