"""In-memory spans around calls into the layers of ``umfb``.

A traced run wraps the public functions of each module where their callers
look them up (``umfb.fdbcore.predict_term_count`` as seen by the cap check,
``umfb.special.partitions`` as seen by the partition sums, the
``FormulaPoly`` methods, ...).  Each wrapper records a span: name, start,
end, parent span and request id.  Spans stay in memory and are written out
when the run ends.  The package itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Names of the lru caches whose statistics the run reports.
CACHES = (
    ("umfb.fdbcore", "_expansion"),
    ("umfb.fdbcore", "_tagged_expansion"),
    ("umfb.multiindex", "_count"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": 0,
            "end": 0,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, request=self.request)
            rec["parent"] = parent if rec["parent"] is None else base + rec["parent"]
            self.spans.append(rec)

    def _wrap(self, fn, name, note, materialize):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label) as rec:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            if note is not None:
                rec["count"] = note(result)
            return iter(result) if materialize else result

        return wrapper

    def patch(self, owner, attr: str, name, note=None, materialize=False) -> None:
        """Replace ``owner.attr`` by a traced wrapper.  A missing name is an
        error, so that a renamed function cannot silently lose its span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"{owner.__name__}.{attr} not found: cannot trace it")
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, note, materialize))

    @contextmanager
    def installed(self):
        """Wrap the layer functions of every ``umfb`` module already imported."""
        mods = {name: sys.modules.get(name) for name in
                ("umfb.fdbcore", "umfb.special", "umfb.algebra", "umfb.cli")}
        fdbcore, special, algebra, cli = mods.values()
        for owner in (fdbcore, cli):
            if owner is not None:
                for attr in ("umfb", "generalized_bell"):
                    self.patch(owner, attr, "fdbcore.assemble", note=len)
        if fdbcore is not None:
            self.patch(fdbcore, "predict_term_count", "fdbcore.predict", note=int)
            self.patch(fdbcore, "count_partitions", "multiindex.count")
            self.patch(fdbcore, "partitions", "multiindex.partitions", note=len,
                       materialize=True)
        if algebra is not None:
            poly = algebra.FormulaPoly
            self.patch(poly, "terms", "algebra.sort")
            self.patch(poly, "render", _render_name, note=len)
        if special is not None:
            self.patch(special, "partitions", "multiindex.partitions", note=len,
                       materialize=True)
            for attr, label in SPECIAL_SPANS.items():
                self.patch(special, attr, label)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(self._undo):
                setattr(owner, attr, fn)
            self._undo.clear()


SPECIAL_SPANS = {
    "moments_to_cumulants": "special.cumulants",
    "cumulants_to_moments": "special.moments",
    "compound_poisson_moments": "special.poisson",
    "hermite": "special.hermite",
    "hermite_via_bell": "special.hermite_bell",
}


def _render_name(poly, fmt="text"):
    return f"algebra.render.{fmt}"


class TracedFile:
    """A writable file or stream whose writes and close are ``cli.write`` spans."""

    def __init__(self, fh, tracer: Tracer, flush: bool = False):
        self._fh = fh
        self._tracer = tracer
        self._flush = flush

    def write(self, data):
        with self._tracer.span("cli.write") as rec:
            n = self._fh.write(data)
            if self._flush:
                self._fh.flush()
        rec["count"] = len(data)
        return n

    def close(self):
        with self._tracer.span("cli.write"):
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def cache_stats() -> dict:
    """{cache name: [hits, misses, size]} for every cache already imported."""
    out = {}
    for mod, attr in CACHES:
        fn = getattr(sys.modules.get(mod), attr, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[attr] = [info.hits, info.misses, info.currsize]
    return out


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part covered by its child spans (ns)."""
    covered = [0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, covered)]
