"""The benchmark's workloads.

Each workload makes its inputs from the seed, sends one request at a time
(a closed loop with a single client) and checks every output against the
independent references in `reference.py`, outside the timed region.

Requests come in cycles.  Every cycle holds the same mix of request kinds in
a seeded order, with seeded values, and a run measures whole cycles; so the
mix, and with it the percentiles, is the same on every seed.  Each cycle is
sized so that the median and the 90th percentile fall inside a group of
like requests rather than on the boundary between two groups.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
FORMATS = ("text", "latex", "json")
CHILD_TIMEOUT_S = 120


def rational(rng: random.Random) -> Fraction:
    """A nonzero rational with a small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def symbol_inputs(rng, index, n: int, n_inner: int):
    """Values for f[k] (0 < |k| <= |index|), g1..g{n_inner}[c] (0 < c <= index)
    and x1..xn."""
    outer = {k: rational(rng) for k in ref.indices_up_to(n, sum(index))}
    inner = [{c: rational(rng) for c in ref.box(index) if any(c)} for _ in range(n_inner)]
    xs = {j: rational(rng) for j in range(1, n + 1)}
    return outer, inner, xs


def _csv(index) -> str:
    return ",".join(map(str, index))


class Workload:
    name = ""
    outputs = "terms"  # what a request produces, counted by outputs_per_s
    in_process = True  # requests run in this process, not in children

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed
        self.root = root
        self.work = work

    def cycle(self, c: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        reqs = self.draw(rng, c)
        rng.shuffle(reqs)
        return reqs

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def adopt_trace(self, tracer, parent: int) -> None:
        """Attach spans the request recorded elsewhere (CLI children only)."""

    def trace_extras(self, requests: list) -> dict:
        """Per-layer metrics that are replayed rather than measured."""
        return {}


# -- cli-compute --------------------------------------------------------------


@dataclass
class CliRequest:
    argv: list
    index: tuple
    n: int
    mode: str
    fmt: str
    values: tuple  # (outer, inner, xs) at which the output is evaluated
    row: tuple | None = None  # (index, n) of a big request written to a file


class CliCompute(Workload):
    """Sequential `python -m umfb.cli compute` calls.

    Per cycle: 12 tiny requests (|i| <= 4, m <= 3, n <= 3, any mode and
    format, to stdout) and the 6 big ones (two distinct-mode rows of the
    CLI's built-in bench rows, 14,098 and 20,208 terms, in each format, to a
    file).  The median falls on tiny requests, where process start and
    import dominate; the 90th percentile on big ones, where sort, render and
    write dominate.
    """

    name = "cli-compute"
    in_process = False
    BIG_ROWS = (((6, 5), 2), ((5, 4), 3))
    TINY_PER_CYCLE = 12
    MODES = ("general", "shared-inner", "bell", "uni-outer")

    def setup(self):
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.tiny_space = [
            (i, n, mode, fmt)
            for m in (1, 2, 3)
            for i in ref.indices_up_to(m, 4)
            for n in (1, 2, 3)
            for mode in self.MODES
            for fmt in FORMATS
        ]
        rng = random.Random(f"{self.name}:{self.seed}")
        self.big_values = {row: symbol_inputs(rng, *row, row[1]) for row in self.BIG_ROWS}
        self.refs: dict = {}
        self.verified: dict = {}
        self.child_caches: list = []
        self.peak_kb = 0
        # one untimed call, which also compiles the package's bytecode
        warm = self._tiny(rng, ((1, 1), 2, "general", "text"))
        err, _ = self.check(warm, self.run(warm))
        if err:
            raise RuntimeError(f"warm-up request failed: {err}")
        self.peak_kb = 0

    def _tiny(self, rng, kind) -> CliRequest:
        i, n, mode, fmt = kind
        if mode == "uni-outer":
            n = 1
        values = symbol_inputs(rng, i, n, 1 if mode == "shared-inner" else n)
        argv = ["-i", _csv(i), "-n", str(n), "--mode", mode, "--format", fmt]
        return CliRequest(argv, i, n, mode, fmt, values)

    def draw(self, rng, c):
        reqs = [self._tiny(rng, rng.choice(self.tiny_space)) for _ in range(self.TINY_PER_CYCLE)]
        for row in self.BIG_ROWS:
            for fmt in FORMATS:
                argv = ["-i", _csv(row[0]), "-n", str(row[1]), "--format", fmt,
                        "-o", str(self.work / f"out.{fmt}")]
                reqs.append(CliRequest(argv, row[0], row[1], "general", fmt,
                                       self.big_values[row], row))
        return reqs

    def run(self, req: CliRequest, traced: bool = False):
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self.work / "spans.json")]
        else:
            cmd = [sys.executable, "-m", "umfb.cli"]
        cmd += ["compute", *req.argv]
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # give the maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def adopt_trace(self, tracer, parent):
        path = self.work / "spans.json"
        if not path.exists():  # the child failed before writing its spans
            return
        data = json.loads(path.read_text())
        path.unlink()
        tracer.adopt(data["spans"], parent)
        self.child_caches.append(data["caches"])

    def trace_extras(self, requests):
        """Expansion-cache statistics of the traced children, each of which
        starts with empty caches."""
        stats = [v for caches in self.child_caches for v in caches.values()]
        hits = sum(h for h, _, _ in stats)
        lookups = sum(h + m for h, m, _ in stats)
        size = sum(size for *_, size in stats)
        return {
            "fdbcore.expansion_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "fdbcore.expansion_cache_size": size / max(1, len(self.child_caches)),
        }

    def check(self, req: CliRequest, code: int):
        stderr = (self.work / "stderr").read_text(errors="replace")
        path = self.work / (f"out.{req.fmt}" if req.row else "stdout")
        if code != 0 or stderr:
            return f"exit code {code}: {stderr.strip()[-300:]}", 0
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}", 0
        if req.row is None:
            return self._verify(req, data.decode())
        path.unlink()
        # the CLI is deterministic, so a big output equal to one already
        # verified for the same row and values is verified
        key = (req.row, req.fmt, hashlib.sha256(data).hexdigest())
        if key not in self.verified:
            err, terms = self._verify(req, data.decode())
            if err:
                return err, terms
            self.verified[key] = terms
        return None, self.verified[key]

    def _verify(self, req: CliRequest, text: str):
        try:
            terms = ref.parse_output(text, req.fmt)
            got = ref.evaluate(terms, ref.symbol_values(*req.values))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable {req.fmt} output: {exc!r}", 0
        expect = self._reference(req)
        if got != expect:
            return f"{' '.join(req.argv)}: value {got} != reference {expect}", len(terms)
        return None, len(terms)

    def _reference(self, req: CliRequest) -> Fraction:
        if req.row in self.refs:
            return self.refs[req.row]
        outer, inner, xs = req.values
        if req.mode == "bell":
            value = ref.bell_derivative(req.index, inner, xs)
        else:
            value = ref.composite_derivative(req.index, inner, outer.__getitem__, req.n)
        if req.row:
            self.refs[req.row] = value
        return value


# -- moment-tables ------------------------------------------------------------


@dataclass
class TableRequest:
    fn: str
    m: int
    K: int
    inputs: dict  # shared by the requests of one shape in one cycle


def spd_pair(rng, m: int) -> tuple:
    """(Lambda, Sigma = Lambda^-1) for a symmetric positive definite integer
    matrix Lambda = A A^T + D, entries of A in {-1, 0, 1} and of the diagonal
    D in {1, 2}, so that the Hermite arithmetic stays equally small on every
    seed.  Off-diagonal entries of Lambda may be 0."""
    a = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(m)]
    lam = [[sum(a[r][k] * a[s][k] for k in range(m)) for s in range(m)] for r in range(m)]
    for r in range(m):
        lam[r][r] += rng.randint(1, 2)
    return tuple(map(tuple, lam)), tuple(tuple(row) for row in ref.inverse(lam))


class MomentTables(Workload):
    """In-process full tables, every index with 0 < |i| <= K, from one of the
    five numeric routes of `umfb.special`.  Per-entry partition enumeration
    and partition sums do the work; nothing is assembled or rendered.  Every
    cycle draws fresh tables for each shape."""

    name = "moment-tables"
    outputs = "entries"
    FUNCTIONS = ("cumulants", "moments", "poisson", "hermite", "hermite_bell")
    SHAPES = ((2, 8), (2, 10), (3, 6), (3, 8), (4, 6))
    WARM_SHAPES = ((2, 5), (3, 4), (4, 3))

    def setup(self):
        self.special = importlib.import_module("umfb.special")
        self.signatures = {}
        rng = random.Random(f"{self.name}:{self.seed}")
        for m, K in self.WARM_SHAPES:  # untimed warm-up pass over small tables
            inputs = self._inputs(rng, m, K)
            for fn in self.FUNCTIONS:
                self.run(TableRequest(fn, m, K, inputs))

    def _inputs(self, rng, m: int, K: int) -> dict:
        sp = self.special
        values = {k: rational(rng) for k in ref.indices_up_to(m, K)}
        alpha = [rational(rng) for _ in range(K)]
        lam, sigma = spd_pair(rng, m)
        x = tuple(rational(rng) for _ in range(m))
        return {
            "values": values,
            "table": sp.MomentTable(m, values),
            "alpha": alpha,
            "alpha_seq": sp.MomentSequence.from_values(alpha),
            "sigma_rows": sigma,
            "sigma": sp.SymmetricMatrix(sigma),
            "x": x,
            "lam": lam,
            "shift": tuple(sum(x[a] * lam[a][b] for a in range(m)) for b in range(m)),
            "refs": {},
        }

    def draw(self, rng, c):
        reqs = []
        for m, K in self.SHAPES:
            inputs = self._inputs(rng, m, K)
            reqs += [TableRequest(fn, m, K, inputs) for fn in self.FUNCTIONS]
        return reqs

    def run(self, req: TableRequest, traced: bool = False):
        inp, sp = req.inputs, self.special
        entries = list(inp["values"])
        if req.fn == "cumulants":
            return {i: sp.moments_to_cumulants(inp["table"], i) for i in entries}
        if req.fn == "moments":
            return {i: sp.cumulants_to_moments(inp["table"], i) for i in entries}
        if req.fn == "poisson":
            return {i: sp.compound_poisson_moments(inp["alpha_seq"], inp["table"], i)
                    for i in entries}
        if req.fn == "hermite":
            return {i: sp.hermite(i, inp["sigma"], inp["x"]) for i in entries}
        return {i: sp.hermite_via_bell(i, inp["sigma"], inp["x"]) for i in entries}

    def _reference(self, req: TableRequest) -> dict:
        kind = "hermite" if req.fn.startswith("hermite") else req.fn
        inp, refs = req.inputs, req.inputs["refs"]
        if kind not in refs:
            if kind == "cumulants":
                refs[kind] = ref.cumulants_from_moments(inp["values"], req.m, req.K)
            elif kind == "moments":
                refs[kind] = ref.moments_from_cumulants(inp["values"], req.m, req.K)
            elif kind == "poisson":
                refs[kind] = ref.compound_poisson(inp["alpha"], inp["values"], req.m, req.K)
            else:
                refs[kind] = ref.hermite_table(inp["sigma_rows"], inp["x"], req.K)
        return refs[kind]

    def check(self, req: TableRequest, table: dict):
        expect = self._reference(req)
        if table != expect:
            bad = next((i for i in expect if table.get(i) != expect[i]), None)
            return (f"{req.fn} m={req.m} K={req.K}: entry {bad} is {table.get(bad)}, "
                    f"reference {expect.get(bad)}"), 0
        return None, len(table)

    def trace_extras(self, requests):
        """special.useful_ratio, replayed: of the partitions each route
        enumerates, those whose term is nonzero at the request's own inputs.
        A term is nonzero when every factor it draws from the inputs is: for
        the table routes, the table values at its columns and the route's
        weight for its length; for the Hermite routes, the entries of
        Lambda = Sigma^-1 at its order-2 columns and the components of the
        shift x Lambda at its order-1 columns (Bell route) or at the nonzero
        parts of the subindex k (direct route).  A Hermite partition with a
        column of any other order contributes nothing."""
        enumerated = useful = 0
        for req in requests:
            key = (req.fn, req.m, req.K)
            if key not in self.signatures:
                self.signatures[key] = self._signatures(req)
            for factors, count in self.signatures[key].items():
                enumerated += count
                if factors is not None and all(self._nonzero(req, f) for f in factors):
                    useful += count
        return {"special.useful_ratio": useful / enumerated if enumerated else 0.0}

    @staticmethod
    def _nonzero(req: TableRequest, factor: tuple) -> bool:
        kind, at = factor
        inp = req.inputs
        if kind == "value":
            return inp["values"][at] != 0
        if kind == "weight":  # unit weights and (-1)^(k-1) (k-1)! never vanish
            return req.fn != "poisson" or inp["alpha"][at - 1] != 0
        if kind == "lam":
            a, b = [r for r, e in enumerate(at) for _ in range(e)]
            return inp["lam"][a][b] != 0
        return inp["shift"][at] != 0

    @staticmethod
    def _signatures(req: TableRequest) -> Counter:
        """{factors a term needs nonzero, or None if it is 0 whatever the
        inputs: number of partitions} over the partitions the route
        enumerates for a table of this shape."""
        partitions = importlib.import_module("umfb.multiindex").partitions
        out: Counter = Counter()

        def hermite_factors(p, factors: set, orders: tuple):
            factors = set(factors)
            for col, _ in p.columns:
                d = sum(col)
                if d not in orders:
                    return None
                factors.add(("lam", col) if d == 2 else ("shift", col.index(1)))
            return frozenset(factors)

        for i in ref.indices_up_to(req.m, req.K):
            if req.fn == "hermite":
                # the direct route sums over every subindex k <= i and
                # enumerates the partitions of each nonzero rest i - k
                for k in ref.box(i):
                    rest = tuple(a - b for a, b in zip(i, k))
                    if any(rest):
                        shift_parts = {("shift", a) for a, e in enumerate(k) if e}
                        for p in partitions(rest):
                            out[hermite_factors(p, shift_parts, (2,))] += 1
            elif req.fn == "hermite_bell":
                for p in partitions(i):
                    out[hermite_factors(p, set(), (1, 2))] += 1
            else:
                for p in partitions(i):
                    out[frozenset([("weight", p.length)]
                                  + [("value", col) for col, _ in p.columns])] += 1
        return out


WORKLOADS = {w.name: w for w in (CliCompute, MomentTables)}
