import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import umfb.cli as cli
from umfb.algebra import FormulaPoly
from umfb.fdbcore import CompositionSpec, umfb
from umfb.special import MomentTable

from helpers import all_indices, reference_render

ROOT = Path(__file__).resolve().parents[1]


def run(argv, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_compute_text_golden():
    code, out, err = run(["compute", "-i", "1", "-n", "1"])
    assert code == 0 and err == ""
    assert out == "f[1]*g1[1]\n"


def test_compute_appendix_term_count():
    code, out, _ = run(["compute", "-i", "1,1", "-n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["m"] == 2
    assert len(data["terms"]) == 6
    assert FormulaPoly.from_json(out) == FormulaPoly.from_json(out)  # parses cleanly


def test_compute_uni_outer_json():
    code, out, _ = run(["compute", "-i", "2,1", "--mode", "uni-outer", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 4


def test_compute_defaults_and_output_file(tmp_path):
    target = tmp_path / "poly.txt"
    code, out, _ = run(["compute", "-i", "1,1", "-o", str(target)])
    assert code == 0 and out == ""
    direct = run(["compute", "-i", "1,1"])[1]
    assert target.read_text() == direct


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_compute_stdout_and_file_are_identical(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli, "WRITE_BLOCK_TERMS", 3)  # 16 terms: several blocks
    argv = ["compute", "-i", "2,1", "-n", "2", "--format", fmt]
    target = tmp_path / f"poly.{fmt}"
    assert run(argv + ["-o", str(target)]) == (0, "", "")
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert target.read_text() == out
    assert out == umfb(CompositionSpec(index=(2, 1), n=2, m=2)).render(fmt) + "\n"


@pytest.mark.parametrize("argv", [["-i", "2,1", "-n", "0"], ["-i", "1,1", "-m", "3"]])
def test_invalid_compute_creates_no_file(tmp_path, argv):
    target = tmp_path / "poly.txt"
    for mode in ("general", "shared-inner", "bell"):
        code, out, err = run(["compute", "--mode", mode] + argv + ["-o", str(target)])
        assert code == 2 and out == "" and err.startswith("error: "), mode
        assert not target.exists(), mode


def test_general_compute_matches_the_reference_renderer():
    """`compute` writes the general and uni-outer formulas straight from the
    term stream; each output equals the plain sort-and-format rendering of
    `umfb`'s terms, for every |i| <= 4, m <= 3, n <= 3 and format."""
    for m in (1, 2, 3):
        for i in all_indices(m, 4, include_zero=True):
            flag = ",".join(map(str, i))
            for n, mode in ((1, "uni-outer"), (1, "general"), (2, "general"), (3, "general")):
                terms = dict(umfb(CompositionSpec(index=i, n=n, m=m))._terms)
                for fmt in ("text", "latex", "json"):
                    code, out, err = run(["compute", "-i", flag, "-n", str(n),
                                          "--mode", mode, "--format", fmt])
                    assert (code, err) == (0, "")
                    assert out == reference_render(n, m, terms, fmt) + "\n", (i, n, mode, fmt)


def test_capped_compute_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "1")
    target = tmp_path / "poly.json"
    for mode in ("general", "shared-inner", "bell"):
        code, out, err = run(["compute", "-i", "2,1", "-n", "2", "--mode", mode,
                              "--format", "json", "-o", str(target)])
        assert code == 3 and out == "" and "UMFB_TERM_CAP=1" in err, mode
        assert not target.exists(), mode


class WriteCounter(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# sha256 of `umfb compute -i 6,5 -n 2` (14,098 terms) on stdout, recorded from
# the renderer that built each output as one string, and of `-i 5,4 -n 3`
# (20,208 terms), recorded from the renderer that sorted a dict of every term;
# the shared-inner and bell digests were recorded from the assembly that
# built every distinct-mode product and collected them.
GOLDEN = {
    ("6,5", "2", "general"): {
        "text": "1498716580a33aaae014e1bc7956e4ed619017948d8fa066dc470cf56fc184ec",
        "latex": "a086282b8970f5b7303d151d4bb8a610196ce406a2784aa9b3abd9aaa3cc2e3e",
        "json": "27d97834d65a3af371ee50ee96a07b6767e1d1bbbe6d9734d789d3cea6f8db50",
    },
    ("5,4", "3", "general"): {
        "text": "1820090e3dd407d757769d84585b961f8710f2aa65e2c10b8e0181e5554438d3",
        "latex": "2daacff1ce49a4f70ddc5abf6fd95fe1015d90627b3203af7e10352e2e19db69",
        "json": "3966e0080dfb9ca8b1de6773ec89de3c76d4b95f3780cebc11e865cab058aca4",
    },
    ("6,5", "2", "shared-inner"): {
        "text": "47e58fbde2a76c22681dbbfb4459bd9a429b3f0efb9300cad9eb99571c549fd5",
        "latex": "237a955c0c4b8f1817af51afdef569d7e05859ca05f9a567d435c1e2d20fe844",
        "json": "7cc452eae9657ad3905b775a1752a6b41a4e091deab8798f191b1e20329d709e",
    },
    ("5,4", "3", "shared-inner"): {
        "text": "8809cc78f140bda23c55e73aeb048642ef14dab6e628c3bdc64385655cb9f3b4",
        "latex": "f962ecca61666772dffc6f8ffc17eea0f5276b94a67f5b167f3ebbc159761550",
        "json": "8bde8b6403c9275e04996caa19372adce9b80d7a145493777ff99fd05d1ca124",
    },
    ("6,5", "2", "bell"): {
        "text": "b72467376aa3c28f1384592d4f1464d03b950ed19e4182b0e581322afa479bf9",
        "latex": "8da9623f11e82a4b27e39e86a9f13d04d372fb1c3579bfdbd6d0e6387bcef865",
        "json": "114fe7380f0f28d78d6bad2b73318bddf77e3623dd044c4ae9d7aa5ac4f4d844",
    },
    ("5,4", "3", "bell"): {
        "text": "ff025a83da8995b23e44d288687712d01a616652becbe5861382899e0718942c",
        "latex": "7c1e4deb1317ee07b642d56c3fee5943a08ff91db95b029f4f7a49668c274764",
        "json": "3fc8496abc672dfdbe753db233f3f97733db34124fa74284bc6a22700b74418f",
    },
}


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_compute_golden_digest_written_in_blocks(fmt):
    for (index, n, mode), digests in GOLDEN.items():
        out = WriteCounter()
        code = cli.main(["compute", "-i", index, "-n", n, "--mode", mode, "--format", fmt],
                        out=out, err=io.StringIO())
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[fmt], (index, mode)
        assert out.writes <= 20  # blocks of terms, never one write per term


def test_compute_bad_length():
    code, _, err = run(["compute", "-i", "1,1", "-m", "3"])
    assert code == 2
    assert "error" in err


def test_partitions_golden():
    code, out, _ = run(["partitions", "-i", "2,1"])
    assert code == 0
    assert out.splitlines() == [
        "(2,1)",
        "(2,0) (0,1)",
        "(1,1) (1,0)",
        "(1,0)^2 (0,1)",
    ]


def test_partitions_count_only():
    code, out, _ = run(["partitions", "-i", "2,2", "--count-only"])
    assert code == 0 and out.strip() == "9"


def test_verify_small_sweep():
    code, out, _ = run(["verify", "--max-order", "2", "--max-n", "2", "--max-m", "2"])
    assert code == 0
    assert out.strip().endswith("all equal")


def test_verify_detects_forced_bug(monkeypatch):
    real = cli.umfb

    def broken(spec):
        poly = real(spec)
        if sum(spec.index) >= 2:
            return poly + poly  # double every coefficient
        return poly

    monkeypatch.setattr(cli, "umfb", broken)
    code, out, _ = run(["verify", "--max-order", "2", "--max-n", "1", "--max-m", "1"])
    assert code == 1
    assert "MISMATCH" in out


def test_bench_csv(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("# small rows\n1,1;2\n2,1;2\n")
    code, out, _ = run(["bench", "--rows", str(rows)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i;n;m;terms;umfb_ms;oracle_ms"
    assert lines[1].startswith("1,1;2;2;6;")
    assert lines[2].startswith("2,1;2;2;16;")


def test_bench_skips_capped_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "5")
    rows = tmp_path / "rows.txt"
    rows.write_text("1,1;2\n")
    code, out, err = run(["bench", "--rows", str(rows)])
    assert code == 0
    assert "skipping" in err
    assert out.strip() == "i;n;m;terms;umfb_ms;oracle_ms"


def _table_file(tmp_path, name, n, values):
    path = tmp_path / name
    path.write_text(MomentTable(n=n, values=values).to_json())
    return str(path)


def test_cumulants_golden(tmp_path):
    table = _table_file(tmp_path, "m.json", 2, {(1, 0): 2, (0, 1): 1, (1, 1): 5})
    code, out, _ = run(["cumulants", "--table", table, "-i", "1,1"])
    assert code == 0 and out.strip() == "3"


def test_moments_golden(tmp_path):
    table = _table_file(tmp_path, "c.json", 2, {(1, 0): 2, (0, 1): 1, (1, 1): 3})
    code, out, _ = run(["moments", "--table", table, "-i", "1,1"])
    assert code == 0 and out.strip() == "5"


def test_poisson_golden(tmp_path):
    table = _table_file(tmp_path, "mu.json", 2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    code, out, _ = run(["poisson", "--alpha", "unity", "--table", table, "-i", "1,1"])
    assert code == 0 and out.strip() == "2"


def test_hermite_golden():
    code, out, _ = run(["hermite", "-i", "3", "--sigma", "1", "-x", "2"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(["hermite", "-i", "3", "--sigma", "1", "-x", "2", "--route", "bell"])
    assert code == 0 and out.strip() == "2"


def test_hermite_missing_table_is_usage_error(tmp_path):
    code, _, err = run(["cumulants", "--table", str(tmp_path / "nope.json"), "-i", "1,1"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2}',
        '{"values": [{"index": [1, 0], "value": "1"}]}',
        '{"n": 2, "values": [1, 2]}',
        '[{"n": 2, "values": []}]',
        '{"n": "x", "values": []}',
        '{"n": 1.5, "values": []}',
        '{"n": 0, "values": []}',
        '{"n": -1, "values": []}',
        '{"n": true, "values": []}',
    ],
    ids=["missing-values", "missing-n", "non-object-entries", "top-level-list",
         "n-string", "n-float", "n-zero", "n-negative", "n-bool"],
)
def test_malformed_table_is_usage_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(["cumulants", "--table", str(path), "-i", "1,1"])
    assert code == 2 and out == ""
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["cumulants", "moments", "poisson"])
@pytest.mark.parametrize("index", ["1", "0,0,0"])
def test_table_index_of_another_length_is_usage_error(tmp_path, command, index):
    table = _table_file(tmp_path, "t.json", 2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    alpha = ["--alpha", "unity"] if command == "poisson" else []
    code, out, err = run([command, *alpha, "--table", table, "-i", index])
    assert code == 2 and out == ""
    assert "n=2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["hermite", "-i", "1", "--sigma", "1", "-x", "1/0"], "'1/0'"),
        (["hermite", "-i", "1", "--sigma", "1/0", "-x", "1"], "'1/0'"),
        (["poisson", "--alpha", "1/0", "--table", "GOOD", "-i", "1"], "'1/0'"),
        (["cumulants", "--table", "BAD", "-i", "1"], "BAD"),
    ],
    ids=["hermite-x", "hermite-sigma", "poisson-alpha", "table-value"],
)
def test_zero_denominator_is_usage_error(tmp_path, argv, named):
    paths = {
        "GOOD": _table_file(tmp_path, "mu.json", 1, {(1,): 1}),
        "BAD": str(tmp_path / "bad.json"),
    }
    (tmp_path / "bad.json").write_text('{"n": 1, "values": [{"index": [1], "value": "1/0"}]}')
    code, out, err = run([paths.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert paths.get(named, named) in err and "Traceback" not in err


def test_bench_bad_row_is_usage_error(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("1,1;2\nx,y;2\n")
    code, out, err = run(["bench", "--rows", str(rows)])
    assert code == 2 and out == ""
    assert f"{rows}, line 2" in err and "Traceback" not in err


def test_bench_row_with_n_below_one_names_the_line(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("# n must be positive\n1,1;0\n")
    code, out, err = run(["bench", "--rows", str(rows)])
    assert code == 2 and out == ""
    assert f"{rows}, line 2" in err and "n must be >= 1" in err
    assert "Traceback" not in err


def test_hermite_point_length_is_usage_error():
    for x in ("1", "1,0,5"):
        argv = ["hermite", "-i", "1,1", "--sigma", "2,1;1,3", "-x", x, "--scaled", "H-tilde"]
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert "point of length" in err


def test_usage_errors():
    assert run(["compute"])[0] == 2
    assert run(["nope"])[0] == 2
    assert run(["compute", "-i", "x,y"])[0] == 2
    assert run([])[0] == 2
    assert run(["--help"])[0] == 0


def test_term_cap_exit_code(monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "3")
    code, _, err = run(["compute", "-i", "2,2", "-n", "2"])
    assert code == 3
    assert "cap" in err and "UMFB_TERM_CAP=3" in err


def test_partitions_listing_is_capped(monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "8")
    code, out, err = run(["partitions", "-i", "2,2"])
    assert code == 3 and out == ""
    assert "predicted 9 terms" in err and "UMFB_TERM_CAP=8" in err
    # counting enumerates nothing, so it stays unguarded
    code, out, _ = run(["partitions", "-i", "2,2", "--count-only"])
    assert code == 0 and out.strip() == "9"


def test_hermite_bell_route_is_capped_by_its_support(monkeypatch):
    # (3,3) has 31 partitions, 10 of them with columns of order 1 or 2 only
    argv = ["hermite", "--route", "bell", "-i", "3,3", "--sigma", "2,1;1,3", "-x", "1,-1/2"]
    monkeypatch.setenv("UMFB_TERM_CAP", "10")
    code, out, _ = run(argv)
    assert code == 0 and out == run(argv[:2] + ["direct"] + argv[3:])[1]
    monkeypatch.setenv("UMFB_TERM_CAP", "9")
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert "predicted 10 terms" in err and "UMFB_TERM_CAP=9" in err


def test_term_cap_refuses_a_huge_coordinate_at_once():
    # the closed-form floor p(e) >= 2^(k-1), k(k+1)/2 <= e, refuses before the
    # O(e^2) axis count: the child exits well inside the timeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("UMFB_TERM_CAP", None)
    done = subprocess.run([sys.executable, "-m", "umfb.cli", "compute", "-i", "100000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 3 and done.stdout == ""
    assert "predicted at least" in done.stderr and "UMFB_TERM_CAP=10000000" in done.stderr


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_malformed_term_cap_is_a_usage_error(monkeypatch, value):
    monkeypatch.setenv("UMFB_TERM_CAP", value)
    for argv in (["compute", "-i", "1,1"], ["partitions", "-i", "1,1"]):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert f"UMFB_TERM_CAP={value!r} is not a nonnegative integer" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["general", "bell"])
def test_compute_index_length_must_match_m(mode):
    code, out, err = run(["compute", "-i", "1,1", "-m", "3", "--mode", mode])
    assert code == 2 and out == ""
    assert "index (1, 1) has length != m=3" in err

