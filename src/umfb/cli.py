"""Command-line interface: compute, partitions, verify, bench and the
numeric application commands.

Exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from itertools import islice, product

from .algebra import FormulaPoly
from .errors import TermCapExceeded, UmfbError
from .fdbcore import CompositionSpec, _check_cap, generalized_bell, umfb
from .multiindex import as_index, count_partitions, order, partitions
from .oracle import chain_rule_derivative, equivalence_check
from .special import (
    MomentSequence,
    MomentTable,
    SymmetricMatrix,
    compound_poisson_moments,
    cumulants_to_moments,
    hermite,
    hermite_via_bell,
    moments_to_cumulants,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Output is written this many chunks (for `compute`, terms) at a time.
WRITE_BLOCK_TERMS = 2048

# Benchmark rows as (index, n): the published comparison set plus the
# worked two-variable second-derivative example.
BUILTIN_BENCH_ROWS = [
    ((1, 1), 2),
    ((6, 5), 2),
    ((7, 6), 2),
    ((7, 7), 2),
    ((5, 4), 3),
    ((6, 5), 3),
    ((5, 4), 4),
    ((5, 4), 5),
    ((4, 4, 3), 2),
    ((4, 4, 4), 2),
    ((4, 3, 3), 3),
    ((4, 2, 2), 4),
]


def _parse_index(text: str):
    try:
        return as_index(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_vector(text: str):
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_matrix(text: str) -> SymmetricMatrix:
    rows = tuple(_parse_vector(row) for row in text.split(";"))
    return SymmetricMatrix(rows)


def _rat(v) -> str:
    if isinstance(v, float):
        return repr(v)
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _write(out, chunks, path):
    """Write the chunks, WRITE_BLOCK_TERMS at a time, and a final newline to
    the file at ``path``, or to ``out`` when no path is given."""
    if path:
        with open(path, "w") as fh:
            return _write(fh, chunks, None)
    chunks = iter(chunks)
    while block := "".join(islice(chunks, WRITE_BLOCK_TERMS)):
        out.write(block)
    out.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umfb",
        description="Compressed multivariate Faa di Bruno formula toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute the compressed formula")
    pc.add_argument("-i", "--index", type=_parse_index, required=True,
                    help="derivative order, comma separated (e.g. 1,1)")
    pc.add_argument("-n", type=int, default=None, help="number of inner functions")
    pc.add_argument("-m", type=int, default=None, help="number of inner variables")
    pc.add_argument("--mode", choices=["general", "shared-inner", "bell", "uni-outer"],
                    default="general")
    pc.add_argument("--format", choices=["text", "latex", "json"], default="text")
    pc.add_argument("-o", "--output", default=None)

    pp = sub.add_parser("partitions", help="list partitions of a multi-index")
    pp.add_argument("-i", "--index", type=_parse_index, required=True)
    pp.add_argument("--count-only", action="store_true")
    pp.add_argument("-o", "--output", default=None)

    pv = sub.add_parser("verify", help="sweep the compressed route against the chain rule")
    pv.add_argument("--max-order", type=int, default=4)
    pv.add_argument("--max-n", type=int, default=3)
    pv.add_argument("--max-m", type=int, default=3)

    pb = sub.add_parser("bench", help="time the compressed route against the chain rule")
    pb.add_argument("--rows", default=None,
                    help="file of 'index;n' lines; default: built-in row set")
    pb.add_argument("-o", "--output", default=None, help="CSV output path (default stdout)")

    for name in ("cumulants", "moments"):
        p = sub.add_parser(name, help=f"convert a table to {name}")
        p.add_argument("--table", required=True, help="moment table JSON file")
        p.add_argument("-i", "--index", type=_parse_index, required=True)

    pq = sub.add_parser("poisson", help="compound-Poisson moment")
    pq.add_argument("--alpha", required=True,
                    help="comma-separated rate moments a_1..a_K, or 'unity'")
    pq.add_argument("--table", required=True, help="summand moment table JSON file")
    pq.add_argument("-i", "--index", type=_parse_index, required=True)

    ph = sub.add_parser("hermite", help="evaluate a multivariate Hermite polynomial")
    ph.add_argument("-i", "--index", type=_parse_index, required=True)
    ph.add_argument("--sigma", required=True,
                    help="symmetric matrix, rows ';'-separated (e.g. '2,1;1,3')")
    ph.add_argument("-x", required=True, help="evaluation point, comma separated")
    ph.add_argument("--scaled", choices=["H", "H-tilde"], default="H")
    ph.add_argument("--route", choices=["direct", "bell"], default="direct")

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args, out, err)
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CAP
    except (UmfbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


def _dispatch(args, out, err) -> int:
    cmd = args.command
    if cmd == "compute":
        return _cmd_compute(args, out)
    if cmd == "partitions":
        return _cmd_partitions(args, out)
    if cmd == "verify":
        return _cmd_verify(args, out)
    if cmd == "bench":
        return _cmd_bench(args, out, err)
    if cmd == "cumulants":
        value = moments_to_cumulants(_load_table(args.table), args.index)
    elif cmd == "moments":
        value = cumulants_to_moments(_load_table(args.table), args.index)
    elif cmd == "poisson":
        if args.alpha == "unity":
            alpha = MomentSequence.unity()
        else:
            alpha = MomentSequence.from_values(_parse_vector(args.alpha))
        value = compound_poisson_moments(alpha, _load_table(args.table), args.index)
    else:  # hermite; argparse admits no other command
        sigma = _parse_matrix(args.sigma)
        x = _parse_vector(args.x)
        if args.route == "bell":
            value = hermite_via_bell(args.index, sigma, x)
        else:
            value = hermite(args.index, sigma, x, scaled=args.scaled)
    print(_rat(value), file=out)
    return EXIT_OK


def _cmd_compute(args, out) -> int:
    i = args.index
    m = args.m if args.m is not None else len(i)
    n = args.n if args.n is not None else m
    if args.mode == "uni-outer":
        n = 1
    if args.mode == "bell":
        poly = generalized_bell(i, n, m)
    else:
        mode = "shared" if args.mode == "shared-inner" else "distinct"
        poly = umfb(CompositionSpec(index=i, n=n, m=m, inner_mode=mode))
    _write(out, poly.chunks(args.format), args.output)
    return EXIT_OK


def _format_partition(p) -> str:
    # columns shown largest-first, matching the usual matrix display
    parts = []
    for col, mult in reversed(p.columns):
        body = "(" + ",".join(map(str, col)) + ")"
        parts.append(body + (f"^{mult}" if mult > 1 else ""))
    return " ".join(parts)


def _cmd_partitions(args, out) -> int:
    i = args.index
    if args.count_only:
        _write(out, [str(count_partitions(i))], args.output)
    else:
        _check_cap(i, 1)
        lines = "\n".join(_format_partition(p) for p in partitions(i))
        _write(out, [lines], args.output)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    checked = 0
    for m in range(1, args.max_m + 1):
        for i in product(range(args.max_order + 1), repeat=m):
            if order(i) > args.max_order:
                continue
            for n in range(1, args.max_n + 1):
                for mode in ("distinct", "shared"):
                    spec = CompositionSpec(index=i, n=n, m=m, inner_mode=mode)
                    equal, report = equivalence_check(
                        umfb(spec), chain_rule_derivative(spec)
                    )
                    checked += 1
                    if not equal:
                        print(
                            f"MISMATCH i={i} n={n} m={m} mode={mode}: {report}",
                            file=out,
                        )
                        return EXIT_MISMATCH
    print(f"verified {checked} cases: all equal", file=out)
    return EXIT_OK


def _load_bench_rows(path):
    if path is None:
        return list(BUILTIN_BENCH_ROWS)
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx_text, n_text = line.split(";")
                index, n = _parse_index(idx_text), int(n_text)
                if n < 1:
                    raise ValueError("n must be >= 1")
                rows.append((index, n))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}, line {lineno}: bad row {line!r}: {exc}") from None
    return rows


def _cmd_bench(args, out, err) -> int:
    rows = _load_bench_rows(args.rows)
    lines = ["i;n;m;terms;umfb_ms;oracle_ms"]
    status = EXIT_OK
    for i, n in rows:
        spec = CompositionSpec(index=i, n=n, m=len(i))
        try:
            t0 = time.perf_counter()
            fast = umfb(spec)
            t1 = time.perf_counter()
            slow = chain_rule_derivative(spec)
            t2 = time.perf_counter()
        except TermCapExceeded as exc:
            print(f"warning: skipping row {i};{n}: {exc}", file=err)
            continue
        if len(fast) != len(slow):
            print(
                f"error: term count mismatch for {i};{n}: "
                f"{len(fast)} vs {len(slow)}",
                file=err,
            )
            status = EXIT_MISMATCH
            continue
        lines.append(
            ";".join(
                [
                    ",".join(map(str, i)),
                    str(n),
                    str(len(i)),
                    str(len(fast)),
                    str(round((t1 - t0) * 1000)),
                    str(round((t2 - t1) * 1000)),
                ]
            )
        )
    _write(out, ["\n".join(lines)], args.output)
    return status


def _load_table(path) -> MomentTable:
    with open(path) as fh:
        text = fh.read()
    try:
        return MomentTable.from_json(text)
    except (UmfbError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
