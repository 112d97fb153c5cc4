"""Repository-level checks on the package source."""

import ast
import importlib.util
import io
import os
import subprocess
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
    # each name is defined in the module it is listed under, not re-exported
    assert [name for name in umfb.__all__
            if getattr(umfb, name).__module__ != f"umfb.{umfb._MODULE_OF[name]}"] == []


def test_compute_child_loads_no_numeric_or_oracle_module():
    """`python -m umfb.cli compute` imports only what the command uses, in
    every mode and format: not `special` or `oracle`, and, beyond what an
    empty interpreter loads, none of `dataclasses`, `inspect`, `json` and
    `fractions`.  The child's outputs are those of `cli.main` in process."""
    from umfb import cli

    argvs = [["compute", "-i", "1,1", "--mode", mode, "--format", fmt]
             for fmt in ("text", "latex", "json")
             for mode in ("general", "shared-inner", "bell", "uni-outer")]
    script = (
        "import runpy, sys\n"
        f"for argv in {argvs!r}:\n"
        "    sys.argv = ['umfb', *argv]\n"
        "    try:\n"
        "        runpy.run_module('umfb.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        "print(sorted(sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    empty, done = (subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
                   for code in ("import sys; print(sorted(sys.modules))", script))
    *out, loaded = done.stdout.splitlines()
    assert out[:4] == [
        "f[0,1]*g2[1,1] + f[1,0]*g1[1,1] + f[0,2]*g2[0,1]*g2[1,0] + "
        "f[1,1]*g1[0,1]*g2[1,0] + f[1,1]*g1[1,0]*g2[0,1] + f[2,0]*g1[0,1]*g1[1,0]",
        "f[0,1]*g1[1,1] + f[1,0]*g1[1,1] + f[0,2]*g1[0,1]*g1[1,0] + "
        "2*f[1,1]*g1[0,1]*g1[1,0] + f[2,0]*g1[0,1]*g1[1,0]",
        "g1[1,1]*x1 + g2[1,1]*x2 + g1[0,1]*g1[1,0]*x1^2 + g1[0,1]*g2[1,0]*x1*x2 + "
        "g1[1,0]*g2[0,1]*x1*x2 + g2[0,1]*g2[1,0]*x2^2",
        "f[1]*g1[1,1] + f[2]*g1[0,1]*g1[1,0]",
    ]
    for argv, line in zip(argvs, out, strict=True):
        buffer = io.StringIO()
        assert cli.main(argv, out=buffer) == 0
        assert buffer.getvalue() == line + "\n", argv
    added = set(ast.literal_eval(loaded)) - set(ast.literal_eval(empty.stdout))
    assert "umfb.fdbcore" in added
    assert added & {"umfb.special", "umfb.oracle", "dataclasses", "inspect", "json",
                    "fractions"} == set()
