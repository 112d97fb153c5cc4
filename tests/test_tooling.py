"""Repository-level checks on the package source."""

import ast
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "umfb"


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "umfb" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []


def test_benchmark_tracer_wraps_every_layer_it_names():
    """The per-layer benchmark patches names such as fdbcore.partitions,
    special.partitions and fdbcore.count_partitions; each must still exist
    and take the calls the package makes through it, with ``columns``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import umfb.algebra  # noqa: F401  (the tracer wraps modules already imported)
    import umfb.cli  # noqa: F401
    from umfb import fdbcore, special

    sigma = special.SymmetricMatrix(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))))
    x = (Fraction(1), Fraction(-1, 2))
    expect = special.hermite_via_bell((3, 2), sigma, x)
    tracer = tracing.Tracer()
    with tracer.installed():
        got = special.hermite_via_bell((3, 2), sigma, x)
        poly = fdbcore.umfb(fdbcore.CompositionSpec((2, 1), 2, 2))
    assert got == expect and len(poly) == fdbcore.predict_term_count((2, 1), 2)
    names = {rec["name"] for rec in tracer.spans}
    assert {"special.hermite_bell", "multiindex.partitions", "multiindex.count",
            "fdbcore.predict", "fdbcore.assemble"} <= names
    # the span counts the restricted stream: 7 of the 16 partitions of (3,2)
    bell = next(k for k, rec in enumerate(tracer.spans) if rec["name"] == "special.hermite_bell")
    assert [rec["count"] for rec in tracer.spans if rec["parent"] == bell
            and rec["name"] == "multiindex.partitions"] == [7]
    assert special.partitions is fdbcore.partitions is sys.modules["umfb.multiindex"].partitions


def test_package_keeps_no_module_level_cache():
    """Caches live for one call: nothing in the package is decorated with
    functools.lru_cache or functools.cache, which grow for the process."""
    cached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.name}: {node.name}")
    assert cached == []


def test_public_names_resolve_once():
    import umfb

    assert len(umfb.__all__) == len(set(umfb.__all__))
    assert [name for name in umfb.__all__ if not hasattr(umfb, name)] == []
