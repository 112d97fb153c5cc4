import hashlib
import io
import json

import pytest

import umfb.cli as cli
from umfb.algebra import FormulaPoly
from umfb.fdbcore import CompositionSpec, umfb
from umfb.special import MomentTable


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


def test_capped_compute_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv("UMFB_TERM_CAP", "1")
    target = tmp_path / "poly.json"
    code, out, err = run(["compute", "-i", "2,1", "-n", "2", "--format", "json",
                          "-o", str(target)])
    assert code == 3 and out == "" and "UMFB_TERM_CAP=1" in err
    assert not target.exists()


class WriteCounter(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# sha256 of `umfb compute -i 6,5 -n 2` (14,098 terms) on stdout, recorded from
# the renderer that built each output as one string.
GOLDEN_6_5_N2 = {
    "text": "1498716580a33aaae014e1bc7956e4ed619017948d8fa066dc470cf56fc184ec",
    "latex": "a086282b8970f5b7303d151d4bb8a610196ce406a2784aa9b3abd9aaa3cc2e3e",
    "json": "27d97834d65a3af371ee50ee96a07b6767e1d1bbbe6d9734d789d3cea6f8db50",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_6_5_N2))
def test_compute_golden_digest_written_in_blocks(fmt):
    out = WriteCounter()
    code = cli.main(["compute", "-i", "6,5", "-n", "2", "--format", fmt],
                    out=out, err=io.StringIO())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN_6_5_N2[fmt]
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
    ],
    ids=["missing-values", "missing-n", "non-object-entries", "top-level-list"],
)
def test_malformed_table_is_usage_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(["cumulants", "--table", str(path), "-i", "1,1"])
    assert code == 2 and out == ""
    assert str(path) in err and "Traceback" not in err


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

