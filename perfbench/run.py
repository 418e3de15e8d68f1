"""Closed-loop benchmark of the cornerindex calculator.

    python3 perfbench/run.py --workload homology-mix --seed 1 --seconds 35 --trace 0

One process, one thread, one client: each query starts when the previous one
has finished.  A pass is the seeded list of distinct queries (see
``workloads.py``).  Each pass runs right after a fresh set-up: import of the
package, input generation and validation, document writing and one warm-up
query.  So no pass sees the objects, or any cache, of another.  Passes repeat
until ``--seconds`` have gone by and at least five are done.  Every answer is
checked by the oracles and against the recorded reference digests.

All times are CPU time of this process (``time.process_time``), which
leaves out the intervals in which a shared host runs other tenants, scaled
to the speed of a quiet reference host: the speed of a shared CPU itself
varies with its neighbours' load, so a fixed probe kernel (``calibration``)
runs before the first query of a pass and after every query, and each
query's CPU time is divided by the host's slowness around it (median of the
four probes nearest to it, over the reference probe time).  A
query's latency is the median of its scaled samples, one per pass.  The
median and p90 are taken over the pass's queries (105, so p90 has ten
beyond it) by the Harrell-Davis estimator, a weighted mean of the order
statistics around the quantile: a pass draws one query from each stratum
of neighbouring cost, and where a stratum straddles a gap between two
kinds of query (as at the median of obstruction-codim2) the single order
statistic would read one side or the other by the seed's draw.
Throughput is queries per second at those latencies;
``setup_s`` is the median of the set-ups, each up to the end of its warm-up
query and scaled by the probes run just before and after it.  The lines
before the result also give the raw CPU-time figures and the slowness seen.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the pass
three times untraced and three times with spans around every layer, each
after a fresh set-up, and prints the per-layer metrics of one traced pass
and the tracing overhead (traced minus untraced pass time, each the sum of
the per-query median scaled times).

The last line of standard output is one JSON object; the lines before it
repeat every metric by name, with its unit and sample count.

Other modes: ``--record-reference`` rewrites ``reference.json`` (digest and
cost of every spec of every universe); ``--roadmap-rows`` times the three
baseline rows once and rewrites ``roadmap_rows.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import library  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PASS_SIZE, WORKLOADS, Inputs  # noqa: E402

REFERENCE = HERE / "reference.json"
ROADMAP_ROWS = HERE / "roadmap_rows.json"
MIN_PASSES = 5
TRACE_ROUNDS = 3
RECORD_ROUNDS = 9


def setup(workload, seed: int, cost_ms: dict):
    """Import, generate, validate, write documents, run one warm-up query;
    returns the CPU time up to the warm-up's answer, which is then checked."""
    start = process_time()
    lib = library.import_fresh()
    workdir = library.WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(lib, workdir)
    queries = [workload.make(inputs, spec) for spec in workload.pass_specs(seed, cost_ms)]
    warm = workload.make(inputs, workload.warmup)
    answer = warm.run()
    elapsed = process_time() - start
    problems, _ = warm.check(answer)
    if problems:
        raise RuntimeError(f"warm-up query {warm.key} failed its check: {problems[0]}")
    return elapsed, lib, queries


class Loop:
    """Runs passes of queries, timing each call and checking each answer."""

    def __init__(self, reference: dict, probe: calibration.Probe, tracer: Tracer | None = None):
        self.reference = reference
        self.probe = probe
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}  # scaled CPU seconds, one per pass
        self.latencies: list[float] = []  # raw CPU seconds of every query run
        self.slowness: list[float] = []  # one per query run
        self.failures: list[str] = []

    def run_pass(self, queries) -> None:
        tracer, probe = self.tracer, self.probe
        probes, times = [probe()], []
        for query in queries:
            if tracer is not None:
                tracer.begin_query()
            start = process_time()
            try:
                answer, error = query.run(), None
            except Exception as exc:  # a raising query is a failed query
                answer, error = None, exc
            elapsed = process_time() - start
            if tracer is not None:
                tracer.end_query()
            probes.append(probe())
            times.append(elapsed)
            problems = [f"raised {type(error).__name__}: {error}"] if error else self.check(query, answer)
            if problems:
                self.failures.append(f"{query.key}: {'; '.join(problems)}")
        for i, (query, elapsed) in enumerate(zip(queries, times)):
            # probes i and i + 1 bracket query i; one more on each side
            # keeps a single disturbed probe from setting the scale
            slowness = statistics.median(probes[max(0, i - 1) : i + 3]) / calibration.REFERENCE_S
            self.samples.setdefault(query.key, []).append(elapsed / slowness)
            self.latencies.append(elapsed)
            self.slowness.append(slowness)

    def check(self, query, answer) -> list[str]:
        try:
            problems, part = query.check(answer)
        except Exception as exc:
            return [f"answer could not be checked: {type(exc).__name__}: {exc}"]
        want = self.reference.get(query.key)
        if want is None:
            problems.append("no reference digest")
        elif oracles.digest(part) != want["digest"]:
            problems.append("answer digest differs from the reference")
        return problems

    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def per_query(self) -> list[float]:
        """Each query's median scaled latency over the passes run."""
        return [statistics.median(samples) for samples in self.samples.values()]


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta(q(n+1), (1-q)(n+1)) density over their slots of
    width 1/n, integrated by Simpson's rule."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    steps = 16
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = math.fsum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return math.fsum(w * v for w, v in zip(weights, ordered)) / math.fsum(weights)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def _timed_pass(loop, workload, seed: int, cost_ms: dict) -> tuple[float, float]:
    """Set up, run one pass; returns the set-up's raw CPU time and its time
    scaled by the probes run just before and after it.  Nothing of the
    set-up outlives the call."""
    before = loop.probe()
    elapsed, _, queries = setup(workload, seed, cost_ms)
    slowness = (before + loop.probe()) / 2 / calibration.REFERENCE_S
    loop.run_pass(queries)
    return elapsed, elapsed / slowness


def timed_run(workload, seed: int, seconds: float, reference: dict, cost_ms: dict):
    """Fresh set-up, then one timed pass, until ``seconds`` have gone by."""
    loop = Loop(reference, calibration.Probe())
    setups = []
    start = perf_counter()
    while len(setups) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()  # free the previous set-up, so that peak RSS is that of one
        setups.append(_timed_pass(loop, workload, seed, cost_ms))
    latency = loop.per_query()
    n, passes = len(latency), len(setups)
    pass_s = [math.fsum(loop.latencies[i : i + n]) for i in range(0, len(loop.latencies), n)]
    print(f"raw CPU time: median set-up {statistics.median(s for s, _ in setups):.6f} s, "
          f"median pass {statistics.median(pass_s):.6f} s; host slowness over the queries: "
          f"median {statistics.median(loop.slowness):.3f}, range {min(loop.slowness):.3f}-{max(loop.slowness):.3f}")
    note = f"n={n} queries, each the median of {passes} passes"
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s", f"median of {passes} set-ups"),
        "queries_per_s": (n / math.fsum(latency), "1/s", note),
        "query_p50_s": (harrell_davis(latency, 0.5), "s", f"{note}, Harrell-Davis"),
        "query_p90_s": (harrell_davis(latency, 0.9), "s", f"{note}, Harrell-Davis, {n - math.ceil(0.9 * n)} beyond"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of this process"),
    }
    return metrics, loop


def traced_run(workload, seed: int, reference: dict, cost_ms: dict):
    """Rounds of one untraced and one traced pass, each after a fresh set-up.
    The per-layer metrics come from the last traced pass; the overhead
    compares the per-query median scaled times of the two kinds of pass."""
    probe = calibration.Probe()
    plain, traced = Loop(reference, probe), Loop(reference, probe)
    for _ in range(TRACE_ROUNDS):
        gc.collect()
        _timed_pass(plain, workload, seed, cost_ms)
        gc.collect()
        _, lib, queries = setup(workload, seed, cost_ms)
        traced.tracer = Tracer()
        replaced = traced.tracer.install(lib)
        missing = traced.tracer.unwrapped_references()
        if missing:
            raise RuntimeError(f"unwrapped references to timed functions: {', '.join(missing)}")
        traced.run_pass(queries)
    print(f"trace: {replaced} bindings wrapped, none missed; {TRACE_ROUNDS} untraced and {TRACE_ROUNDS} traced passes")
    values = traced.tracer.metrics(math.fsum(traced.per_query()) - math.fsum(plain.per_query()))
    units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    unit_of = {m["name"]: m["unit"] for m in units}
    metrics = {k: (v, unit_of[k], f"one traced pass of {len(queries)} queries") for k, v in values.items()}
    traced.latencies += plain.latencies
    traced.failures += plain.failures
    return metrics, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    reference = load_reference(name)
    cost_ms = {key: entry["cost_ms"] for key, entry in reference.items()}
    print(f"workload {name}, seed {seed}: {PASS_SIZE} distinct queries per pass, closed loop, 1 client")
    if trace:
        metrics, loop = traced_run(workload, seed, reference, cost_ms)
    else:
        metrics, loop = timed_run(workload, seed, seconds, reference, cost_ms)
    attempted = len(loop.latencies)
    failed = len(loop.failures)
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:32s} {value:14.6f} {unit:6s} ({note})")
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6f} {'':6s} ({failed} of {attempted} queries failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record_reference() -> int:
    """Run every spec of every universe in RECORD_ROUNDS rounds, each after
    a fresh set-up; check every answer and store the spec's digest and the
    median of its CPU times, each scaled by the probes run just before and
    after it as in a timed pass.  Rounds rather than repeats in a row spread
    each spec's samples over the recording, and the scaling takes out the
    host's speed, so that the cost order of the strata does not depend on
    one busy moment of the host."""
    table = {}
    probe = calibration.Probe()
    for name, workload in WORKLOADS.items():
        workdir = library.WORK / name
        workdir.mkdir(parents=True, exist_ok=True)
        times, digests = {}, {}
        start = perf_counter()
        for _ in range(RECORD_ROUNDS):
            inputs = Inputs(library.import_fresh(), workdir)
            last = probe()
            for spec in workload.universe():
                query = workload.make(inputs, spec)
                begin = process_time()
                answer = query.run()
                elapsed = process_time() - begin
                now = probe()
                times.setdefault(query.key, []).append(elapsed / ((last + now) / 2 / calibration.REFERENCE_S))
                last = now
                problems, part = query.check(answer)
                if digests.setdefault(query.key, oracles.digest(part)) != oracles.digest(part):
                    problems.append("answer differs between rounds")
                if problems:
                    print(f"error: {query.key}: {problems[0]}", file=sys.stderr)
                    return 1
        table[name] = {
            key: {"digest": digests[key], "cost_ms": round(1000 * statistics.median(times[key]), 3)} for key in sorted(times)
        }
        print(f"{name}: {len(times)} reference answers in {perf_counter() - start:.1f} s")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def roadmap_rows() -> int:
    """The three baseline rows, once untraced (time) and once traced (SNF)."""
    import generators as gen

    lib = library.import_fresh()
    P = lib.documents.poset_from_payload
    G = lib.documents.parse_coefficient("Z + Z/4")
    cube5, cube4, gon128 = P(gen.cube(5)), P(gen.cube(4)), P(gen.kgon(128))
    circle = lib.obstruction.KTheoryInput.circle()
    rows = {
        "cube5-homology-Z+Z/4": lambda: lib.conormal.homology(
            lib.conormal.build_complex(lib.faces.FilteredPair(cube5, -1, 5), G)),
        "cube4-six_term(-1,0,4)-Z+Z/4": lambda: lib.conormal.six_term(cube4, -1, 0, 4, G),
        "kgon128-codim2_obstruction_space-circle": lambda: lib.obstruction.codim2_obstruction_space(gon128, circle),
    }
    times = {}
    for name, fn in rows.items():
        start = perf_counter()
        fn()
        times[name] = perf_counter() - start
        print(f"{name}: {times[name]:.2f} s untraced", flush=True)
    tracer = Tracer()
    tracer.install(lib)
    if tracer.unwrapped_references():
        print("error: unwrapped references in the traced run", file=sys.stderr)
        return 1
    out = {}
    for name, fn in rows.items():
        calls_before, distinct_before = tracer.calls["abelian.snf"], tracer.snf_distinct
        tracer.begin_query()
        start = perf_counter()
        fn()
        traced = perf_counter() - start
        tracer.end_query()
        out[name] = {
            "time_s": round(times[name], 3),
            "traced_time_s": round(traced, 3),
            "snf_calls": tracer.calls["abelian.snf"] - calls_before,
            "snf_distinct_inputs": tracer.snf_distinct - distinct_before,
        }
        print(f"{name}: {out[name]}", flush=True)
    out["_machine"] = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    ROADMAP_ROWS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--roadmap-rows", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.roadmap_rows:
            return roadmap_rows()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except library.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
