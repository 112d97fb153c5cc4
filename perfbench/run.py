"""Benchmark of umfb: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload cli-compute --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --baseline

Run from the root of a checkout; the package is loaded from ``src`` and
nothing is installed.  Workloads (see `workloads.py`): ``cli-compute`` and
``moment-tables``.

``--trace 0`` measures whole request cycles until the timed request time
reaches ``--seconds`` and at least 100 requests are done, and prints the
end-to-end metrics.  ``--trace 1``
measures half as long untraced, replays the same requests with spans
recorded around the calls into each module (`tracing.py`), prints the
per-layer metrics and writes the spans to ``.perfbench-work/``.
``--baseline`` prints ``umfb()`` time, json render time and term counts
for the five rows of the Baseline table in ROADMAP.md, each from a fresh
traced CLI process.

Every output is checked against the independent references in
`reference.py`, outside the timed region.  Human-readable lines come first;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 if any request failed.
"""

import time

_START = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, cache_stats, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CPUS = sorted(os.sched_getaffinity(0))
SETUP_PROBES = 10
# enough requests for ten samples beyond the 90th percentile
MIN_REQUESTS = 100
IMPORT_PROBES = 7

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "outputs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

FORMATS = ("text", "latex", "json")
LAYERS = ("cli", "fdbcore", "multiindex", "algebra", "special")
# spans whose time per request is reported as the metric "<span>_ms"
TIMED_SPANS = (
    "cli.write", "fdbcore.predict", "fdbcore.assemble", "multiindex.partitions",
    "multiindex.count", "algebra.sort", "special.cumulants",
    "special.moments", "special.poisson", "special.hermite", "special.hermite_bell",
)
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.write_ms": "ms",
    "cli.write_bytes": "bytes",
    "fdbcore.predict_ms": "ms",
    "fdbcore.assemble_ms": "ms",
    "fdbcore.products": "count",
    "fdbcore.terms_out": "count",
    "fdbcore.collect_ratio": "ratio",
    "fdbcore.expansion_cache_hit_ratio": "ratio",
    "fdbcore.expansion_cache_size": "count",
    "multiindex.partitions_ms": "ms",
    "multiindex.partitions_enumerated": "count",
    "multiindex.count_ms": "ms",
    "algebra.sort_ms": "ms",
    "algebra.render_ms": "ms",
    "algebra.render_bytes": "bytes",
    **{f"algebra.render_{fmt}_ms": "ms" for fmt in FORMATS},
    **{f"algebra.render_{fmt}_bytes": "bytes" for fmt in FORMATS},
    "special.cumulants_ms": "ms",
    "special.moments_ms": "ms",
    "special.poisson_ms": "ms",
    "special.hermite_ms": "ms",
    "special.hermite_bell_ms": "ms",
    "special.partitions_per_entry": "count",
    "special.useful_ratio": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "request.unexplained_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

BASELINE_ROWS = (((6, 5), 2), ((6, 5), 3), ((5, 4), 5), ((4, 4, 4), 2), ((4, 3, 3), 3))


def next_cpu(wl, n: int) -> None:
    """Pin an in-process workload to the next usable CPU before its n-th
    request.  Left alone, the scheduler keeps this process on one CPU for a
    whole run, and on a shared machine that one CPU's speed then decides the
    run; CLI children spread over the CPUs by themselves."""
    if wl.in_process:
        os.sched_setaffinity(0, {CPUS[n % len(CPUS)]})


def percentile(values: list, p: float) -> float:
    """Linear interpolation between the closest ranks of sorted ``values``."""
    pos = (len(values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def measure(wl, seconds: float, min_requests: int = 0, keep: bool = False,
            between=None) -> list:
    """Whole cycles, untraced, until the timed request time reaches
    ``seconds`` and at least ``min_requests`` requests are done; returns
    (request, seconds, error, outputs) per request.  Requests are kept only
    when ``keep`` is set, so that their inputs do not add to the process's
    peak memory.  ``between(share of seconds timed)`` runs after each cycle,
    outside the timed requests."""
    done, total, c = [], 0.0, 0
    while True:
        for req in wl.cycle(c):
            next_cpu(wl, len(done))
            t0 = time.perf_counter()
            out = attempt(wl, req)
            dt = time.perf_counter() - t0
            done.append((req if keep else None, dt, *outcome(wl, req, out)))
            total += dt
        c += 1
        if between is not None:
            between(total / seconds)
        if total >= seconds and len(done) >= min_requests:
            return done


def attempt(wl, req, traced: bool = False):
    """Run one request; a crash is returned, to be counted as a failure."""
    try:
        return wl.run(req, traced)
    except Exception as exc:
        return exc


def outcome(wl, req, out) -> tuple:
    """(error or None, outputs produced) of one request."""
    if isinstance(out, Exception):
        return f"{str(req)[:200]}: raised {out!r}", 0
    return wl.check(req, out)


def measure_traced(wl, requests: list, tracer) -> list:
    """The same requests again, each under a request span."""
    done = []
    with tracer.installed():
        for rid, req in enumerate(requests):
            tracer.request = rid
            next_cpu(wl, rid)
            idx = len(tracer.spans)
            with tracer.span("request") as rec:
                out = attempt(wl, req, traced=True)
            if not isinstance(out, Exception):
                wl.adopt_trace(tracer, idx)
            done.append((req, (rec["end"] - rec["start"]) / 1e9, *outcome(wl, req, out)))
    return done


def report_failures(done: list) -> int:
    failed = [err for _, _, err, _ in done if err]
    for err in failed[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    return len(failed)


def end_to_end(wl, done: list) -> tuple[dict, list]:
    lat = sorted(dt * 1000 for _, dt, _, _ in done)
    outputs = sum(work for *_, work in done)
    metrics = {
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "outputs_per_s": outputs / (sum(lat) / 1000),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = [
        f"{len(lat)} requests, {sum(lat) / 1000:.2f} s timed, "
        f"{len(lat) // 10} samples beyond the 90th percentile",
        f"outputs_per_s is {wl.outputs}_per_s: {outputs} {wl.outputs} in the timed requests",
    ]
    return metrics, notes


class SetupProbes:
    """Set-up time of this process and of fresh processes doing the same
    set-up.  The probes are spread over the timed phase, between cycles, so
    that their median follows the machine's speed over the whole run rather
    than over the few seconds after it."""

    def __init__(self, args, own: float):
        self.samples = [own]
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]

    def __call__(self, share: float = 1.0) -> None:
        while len(self.samples) <= min(SETUP_PROBES, SETUP_PROBES * share):
            out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=120)
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-300:]}")
            self.samples.append(float(out.stdout.split()[-1]))


def import_ms() -> tuple[float, float]:
    """Median wall time of `import umfb.cli` in a fresh interpreter minus that
    of an empty one, measured alternately; and the empty one's (ms)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = {"pass": [], "import umfb.cli": []}
    for _ in range(IMPORT_PROBES):
        for code, acc in times.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            acc.append(time.perf_counter() - t0)
    empty = statistics.median(times["pass"])
    return (statistics.median(times["import umfb.cli"]) - empty) * 1000, empty * 1000


def _caches_delta(before: dict, after: dict) -> tuple[float, int]:
    hits = sum(after[k][0] - before.get(k, [0, 0, 0])[0] for k in after)
    misses = sum(after[k][1] - before.get(k, [0, 0, 0])[1] for k in after)
    size = sum(v[2] for v in after.values())
    return (hits / (hits + misses) if hits + misses else 0.0), size


def layer_metrics(spans: list, n: int, self_ns: list) -> dict:
    dur: dict = defaultdict(int)
    count: dict = defaultdict(int)
    layer_self: dict = defaultdict(int)
    for rec, own in zip(spans, self_ns):
        dur[rec["name"]] += rec["end"] - rec["start"]
        count[rec["name"]] += rec.get("count", 0)
        layer_self[rec["name"].split(".")[0]] += own

    def ms(ns):
        return ns / n / 1e6

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({f"{name}_ms": ms(dur[name]) for name in TIMED_SPANS})
    products, terms = count["fdbcore.predict"], count["fdbcore.assemble"]
    special_calls = sum(1 for r in spans if r["name"].startswith("special."))
    special_parts = sum(
        r.get("count", 0) for r in spans
        if r["name"] == "multiindex.partitions" and r["parent"] is not None
        and spans[r["parent"]]["name"].startswith("special.")
    )
    metrics.update({
        "cli.write_bytes": count["cli.write"] / n,
        "fdbcore.products": products / n,
        "fdbcore.terms_out": terms / n,
        "fdbcore.collect_ratio": terms / products if products else 0.0,
        "multiindex.partitions_enumerated": count["multiindex.partitions"] / n,
        "algebra.render_ms": ms(sum(dur[f"algebra.render.{f}"] for f in FORMATS)),
        "algebra.render_bytes": sum(count[f"algebra.render.{f}"] for f in FORMATS) / n,
        "special.partitions_per_entry": special_parts / special_calls if special_calls else 0.0,
    })
    for fmt in FORMATS:
        metrics[f"algebra.render_{fmt}_ms"] = ms(dur[f"algebra.render.{fmt}"])
        metrics[f"algebra.render_{fmt}_bytes"] = count[f"algebra.render.{fmt}"] / n
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms(layer_self[layer])
    return metrics


def run_traced(args, wl) -> tuple[dict, list, int, int]:
    first = measure(wl, args.seconds / 2, keep=True)
    requests = [req for req, *_ in first]
    tracer = Tracer()
    before = cache_stats()
    second = measure_traced(wl, requests, tracer)
    hit_ratio, size = _caches_delta(before, cache_stats())
    n = len(requests)
    self_ns = self_times(tracer.spans)
    metrics = layer_metrics(tracer.spans, n, self_ns)
    untraced = sum(dt for _, dt, _, _ in first)
    traced = sum(dt for _, dt, _, _ in second)
    cli_import_ms, empty_ms = import_ms()
    metrics.update({
        "cli.import_ms": cli_import_ms,
        "fdbcore.expansion_cache_hit_ratio": hit_ratio,
        "fdbcore.expansion_cache_size": size,
        "trace.overhead_ms": (traced - untraced) / n * 1000,
        "trace.overhead_ratio": traced / untraced - 1,
    })
    metrics.update(wl.trace_extras(requests))
    # Unexplained remainder per request: for a CLI request, its untraced
    # latency minus the traced child's `cli.main` span and the import time;
    # in process, the request span's time outside every layer span.
    main_ms, request_self_ms = defaultdict(float), defaultdict(float)
    for rec, own in zip(tracer.spans, self_ns):
        if rec["name"] == "cli.main":
            main_ms[rec["request"]] += (rec["end"] - rec["start"]) / 1e6
        elif rec["name"] == "request":
            request_self_ms[rec["request"]] += own / 1e6
    remainders = [
        dt * 1000 - main_ms[rid] - metrics["cli.import_ms"] if rid in main_ms
        else request_self_ms[rid]
        for rid, (_, dt, _, _) in enumerate(first)
    ]
    metrics["request.unexplained_ms"] = statistics.median(remainders)
    lat = statistics.median(dt for _, dt, _, _ in first) * 1000
    notes = [
        f"{n} requests untraced, then the same {n} traced",
        f"request.unexplained_ms: median {metrics['request.unexplained_ms']:.3f} ms of a "
        f"median request of {lat:.3f} ms",
        f"an empty interpreter starts and exits in {empty_ms:.3f} ms",
    ]
    trace_path = wl.work.parent / f"trace-{wl.name}-{args.seed}.json"
    trace_path.write_text(json.dumps(tracer.spans))
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, notes, len(first) + len(second), report_failures(first + second)


def baseline(work: Path) -> int:
    """The Baseline table of ROADMAP.md from fresh traced CLI processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_path, out_path = work / "spans.json", work / "baseline.json"
    print("| row (index; n) | terms | predicted | `umfb()` ms | json render ms |")
    print("|---|---|---|---|---|")
    for index, n in BASELINE_ROWS:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "compute",
               "-i", ",".join(map(str, index)), "-n", str(n), "--format", "json",
               "-o", str(out_path)]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=600)
        spans = json.loads(spans_path.read_text())["spans"]
        out_path.unlink()

        def total(name):
            return sum(r["end"] - r["start"] for r in spans if r["name"] == name) / 1e6

        terms = sum(r.get("count", 0) for r in spans if r["name"] == "fdbcore.assemble")
        predicted = sum(r.get("count", 0) for r in spans if r["name"] == "fdbcore.predict")
        row = f"({','.join(map(str, index))});{n}"
        print(f"| {row} | {terms:,} | {predicted:,} | {total('fdbcore.assemble'):,.0f} "
              f"| {total('algebra.render.json'):,.0f} |", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "umfb" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'umfb'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if not args.baseline and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.baseline:
            return baseline(work)
        wl = WORKLOADS[args.workload](args.seed, ROOT, work)
        wl.setup()
        own_setup = time.perf_counter() - _START
        if args.setup_probe:
            print(own_setup)
            return 0

        if args.trace:
            metrics, notes, attempted, failed = run_traced(args, wl)
            units = PER_LAYER
        else:
            probes = SetupProbes(args, own_setup)
            before = cache_stats()
            done = measure(wl, args.seconds, min_requests=MIN_REQUESTS, between=probes)
            after = cache_stats()
            probes()
            metrics, notes = end_to_end(wl, done)
            notes.append(f"cache_info before timed phase {before}, after {after}")
            attempted, failed = len(done), report_failures(done)
            metrics["setup_s"] = statistics.median(probes.samples)
            notes.append("setup_s is the median of "
                         + ", ".join(f"{s:.4f}" for s in probes.samples))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
