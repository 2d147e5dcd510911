"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import commexp
from commexp import bench
from commexp.cli import EXIT_INTERNAL, main
from commexp.schemes import ExponentSlot, catalog_get, catalog_names, save_scheme


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "commexp" in out


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def test_schemes_list_covers_catalog(capsys):
    code, out, _ = run(capsys, "schemes", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(catalog_names())
    for name, line in zip(catalog_names(), lines):
        assert line.startswith(name)
        assert "order=" in line and "E/s" in line


def test_schemes_list_is_deterministic(capsys):
    _, first, _ = run(capsys, "schemes", "list")
    _, second, _ = run(capsys, "schemes", "list")
    assert first == second


def test_schemes_show_prints_slots(capsys):
    code, out, _ = run(capsys, "schemes", "show", "strang")
    assert code == 0
    assert "order 2, 3 exponentials" in out
    assert out.count("slot") == 3
    assert "0.5" in out


def test_schemes_show_unknown_name(capsys):
    code, _, err = run(capsys, "schemes", "show", "nosuch")
    assert code == 2
    assert "unknown scheme" in err
    assert "schemes list" in err


def test_schemes_export_into_missing_directory_is_input_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "schemes", "export", "NCP6_3", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}") and len(err.strip().splitlines()) == 1
    assert not path.exists()


def test_schemes_export_then_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "ncp6.scheme.json"
    code, out, _ = run(capsys, "schemes", "export", "NCP6_3", str(path))
    assert code == 0
    assert str(path) in out
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["name"] == "NCP6_3"
    assert len(doc["slots"]) == 6

    code, out, _ = run(capsys, "verify", "--scheme", str(path))
    assert code == 0
    assert "order 3 verified" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["U21", "PCP16_5", "suzuki4"])
def test_verify_catalog_schemes(capsys, name):
    code, out, _ = run(capsys, "verify", "--scheme", name)
    assert code == 0
    assert f"order {catalog_get(name).order} verified" in out
    assert out.count("max residual") == catalog_get(name).order


def test_verify_reports_effective_error(capsys):
    code, out, _ = run(capsys, "verify", "--scheme", "PCP16_5")
    assert code == 0
    assert "E/s = 0.505208" in out


def test_verify_order_six_prints_basis_norm(capsys):
    code, out, _ = run(capsys, "verify", "--scheme", "PCP26_6")
    assert code == 0
    assert out.splitlines()[-1].endswith("order 6 verified, E = 11.6237, E/s = 0.447064")


def _ncp10_with_identity_block(tmp_path, c):
    """NCP10_4 with exp(cB) exp(cA) exp(-cA) exp(-cB) after its fifth slot:
    the same product, written with large cancelling coefficients."""
    scheme = catalog_get("NCP10_4")
    block = tuple(ExponentSlot(g, x) for g, x in (("B", c), ("A", c), ("A", -c), ("B", -c)))
    path = tmp_path / f"ncp10_c{c:g}.scheme.json"
    save_scheme(dataclasses.replace(scheme, slots=scheme.slots[:5] + block + scheme.slots[5:]),
                path)
    return path


@pytest.mark.parametrize("c", [20.0, 40.0])
def test_verify_large_cancelling_coefficients_pass_the_lie_check(capsys, tmp_path, c):
    # the Lie check allows the round-off the slot coefficients imply, not 1e-10 flat
    code, out, err = run(capsys, "verify", "--scheme", str(_ncp10_with_identity_block(tmp_path, c)))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("order 4 verified, E = 8.48842, E/s = 0.606316")


def test_verify_large_cancelling_coefficients_fail_honestly_at_the_order(capsys, tmp_path):
    # at c = 80 the order residual itself (~1.8e-10) exceeds the default tol
    code, out, _ = run(capsys, "verify", "--scheme", str(_ncp10_with_identity_block(tmp_path, 80.0)))
    assert code == 1
    assert "order 4 NOT verified, first failure at degree 4" in out


def test_verify_corrupted_file_fails_with_degree(capsys, tmp_path):
    scheme = catalog_get("PCP16_5")
    slots = list(scheme.slots)
    slots[3] = type(slots[3])(slots[3].generator, slots[3].coefficient + 1e-3)
    broken = type(scheme)(
        name=scheme.name, slots=tuple(slots), target=scheme.target,
        order=scheme.order, family=scheme.family)
    path = tmp_path / "broken.scheme.json"
    save_scheme(broken, path)
    code, out, _ = run(capsys, "verify", "--scheme", str(path))
    assert code == 1
    assert "NOT verified" in out
    assert "first failure at degree 1" in out


@pytest.mark.parametrize("size,reason", [
    (1e200, "non-finite powers"),
    (1e60, "limit"),
])
def test_verify_oversized_slot_is_input_error(capsys, tmp_path, size, reason):
    scheme = catalog_get("NCP6_3")
    slots = list(scheme.slots)
    slots[2] = type(slots[2])(slots[2].generator, size)
    huge = type(scheme)(
        name="huge", slots=tuple(slots), target=scheme.target, order=scheme.order)
    path = tmp_path / "huge.scheme.json"
    save_scheme(huge, path)
    code, out, err = run(capsys, "verify", "--scheme", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: cannot verify huge:") and reason in err


_GOOD_FILE = {"name": "x", "target": {"name": "commutator", "terms": []}, "order": 2,
              "slots": [{"generator": "A", "coefficient": 1.0}]}


@pytest.mark.parametrize("doc,field", [
    ({}, "'name'"),
    ({**_GOOD_FILE, "slots": 5}, "'slots' must be a list"),
    ({**_GOOD_FILE, "slots": [{"coefficient": 1.0}]}, "'slots[0].generator'"),
    ({**_GOOD_FILE, "target": {"name": "commutator", "terms": 3}},
     "'target.terms' must be a list"),
    ({**_GOOD_FILE, "slots": [{"generator": "C", "coefficient": 1.0}]},
     "'slots[0].generator' must be"),
    ({**_GOOD_FILE, "order": 0}, "order"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": float("nan")}]}, "finite"),
    # what the format does not allow, which loaded as some other scheme
    ({**_GOOD_FILE, "target": {"name": "commutator", "terms": [[2.7, 1.9, 1.0, 0.0]]}},
     "'target.terms[0]' must be"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": True}]},
     "'slots[0].coefficient' must be"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": "-0.48586827175664576"}]},
     "'slots[0].coefficient' must be"),
    ({**_GOOD_FILE, "target": {"name": "commutator",
                               "terms": [[2, 1, 1.0, 0.0], [2, 1, 2.0, 0.0]]}},
     "'target.terms[1]' repeats"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": 10 ** 400}]},
     "'slots[0].coefficient' holds an integer beyond the largest float"),
])
def test_verify_malformed_scheme_file_is_input_error(capsys, tmp_path, doc, field):
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--scheme", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and field in err


def test_verify_non_json_scheme_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.scheme.json"
    path.write_text("{\"name\": ", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--scheme", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not a JSON document")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("content,reason", [
    # json reads the digits, but int() refuses more than 4300 of them
    (b'{"name": "x", "slots": [{"generator": "A", "coefficient": 1' + b"0" * 5000 + b"}]}",
     "Exceeds the limit"),
    (b'{"name": "\xff"}', "utf-8"),
], ids=["5001-digit-integer", "not-utf-8"])
def test_verify_names_the_file_for_every_json_error(capsys, tmp_path, content, reason):
    path = tmp_path / "bad.scheme.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--scheme", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not a JSON document (") and reason in err
    assert len(err.strip().splitlines()) == 1


def test_verify_loose_tolerance_accepts_corruption(capsys, tmp_path):
    scheme = catalog_get("NCP6_3")
    slots = list(scheme.slots)
    slots[0] = type(slots[0])(slots[0].generator, slots[0].coefficient + 1e-9)
    nudged = type(scheme)(
        name="nudged", slots=tuple(slots), target=scheme.target,
        order=scheme.order)
    path = tmp_path / "nudged.scheme.json"
    save_scheme(nudged, path)
    assert run(capsys, "verify", "--scheme", str(path))[0] == 1
    code, out, _ = run(capsys, "verify", "--scheme", str(path), "--tol", "1e-6")
    assert code == 0
    assert "verified" in out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify", "--scheme", "NCP6_3", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --tol") and len(err.strip().splitlines()) == 1


def test_verify_directory_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--scheme", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path}") and len(err.strip().splitlines()) == 1


def test_verify_unknown_scheme(capsys):
    code, _, err = run(capsys, "verify", "--scheme", "missing")
    assert code == 2
    assert "neither a catalog scheme nor a scheme file" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_figure_writes_csv(capsys, tmp_path):
    out = tmp_path / "fig6.csv"
    code, text, _ = run(capsys, "bench", "--figure", "fig6", "--out", str(out))
    assert code == 0
    assert out.exists()
    assert "fig6: wrote" in text


def test_bench_custom_error_curve(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, text, _ = run(
        capsys, "bench", "--custom", "--schemes", "NCP6_3", "--pair", "pauli",
        "--t", "0.5", "--n", "4,8,16", "--out", str(out))
    assert code == 0
    assert "3 data rows" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "scheme,pair,t_total,n,gates,error"
    assert len(data) == 4
    assert data[1].split(",")[:5] == ["NCP6_3", "pauli", "0.5", "4", "24"]


def test_bench_custom_cost_table(capsys, tmp_path):
    out = tmp_path / "cost.csv"
    code, _, _ = run(
        capsys, "bench", "--custom", "--schemes", "NCP6_3,U21",
        "--x", "0.3,0.5", "--tol", "1e-3", "--out", str(out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "scheme,x,tol,gates"
    assert len(data) == 5


@pytest.mark.parametrize("pair,stamp", [
    ("pauli", "pauli: eigenbasis path, complex128 arithmetic"),
    ("random:16", "random:16: taylor path, powers to Y^16, float64 arithmetic; "
                  "taylor path, powers to Y^16, complex128 arithmetic for PCP6_3_imaginary"),
    # past the 1 MiB stack budget a pair caches Y^2, Y^3 and Y^4 only
    ("random:100", "random:100: taylor path, powers to Y^4, float64 arithmetic; "
                   "taylor path, powers to Y^4, complex128 arithmetic for PCP6_3_imaginary"),
])
def test_bench_custom_stamps_provenance(capsys, tmp_path, pair, stamp):
    # the comment lines name how each pair was evaluated and the commexp and
    # numpy versions
    out = tmp_path / "stamp.csv"
    code, _, _ = run(
        capsys, "bench", "--custom", "--schemes", "NCP6_3,NCP10_4,PCP6_3_imaginary",
        "--pair", pair, "--n", "1,2", "--out", str(out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    comments = [l[2:] for l in lines if l.startswith("# ")]
    assert comments[1:] == [stamp, f"commexp {commexp.__version__}", f"numpy {np.__version__}"]
    assert lines[len(comments)] == "scheme,pair,t_total,n,gates,error"


def test_bench_custom_usage_errors(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    assert run(capsys, "bench", "--custom", "--n", "4", "--out", out)[0] == 2
    assert run(capsys, "bench", "--custom", "--schemes", "NCP6_3",
               "--out", out)[0] == 2
    assert run(capsys, "bench", "--custom", "--schemes", "NCP6_3",
               "--n", "4", "--x", "0.5", "--out", out)[0] == 2
    assert run(capsys, "bench", "--custom", "--schemes", "NCP6_3",
               "--pair", "toeplitz", "--n", "4", "--out", out)[0] == 2
    assert run(capsys, "bench", "--custom", "--schemes", "nosuch",
               "--n", "4", "--out", out)[0] == 2
    assert run(capsys, "bench", "--custom", "--schemes", "NCP6_3",
               "--n", "0", "--out", out)[0] == 2
    code, _, err = run(capsys, "bench", "--custom", "--schemes", "NCP6_3",
                       "--pair", "random:abc", "--n", "4", "--out", out)
    assert code == 2
    assert err.startswith("error: --pair ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("schemes", ["", ",", " , ,"])
@pytest.mark.parametrize("flags", [("--n", "1"), ("--x", "0.5", "--tol", "1e-4")])
def test_bench_custom_empty_scheme_list_is_usage_error(capsys, tmp_path, schemes, flags):
    # a --schemes list that splits to no names is a missing --schemes: exit 2
    # with one error line, not an internal error
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "bench", "--custom", "--schemes", schemes, "--pair", "pauli",
                       *flags, "--out", str(out))
    assert code == 2
    assert err == "error: --custom needs --schemes\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--n", "4", "--t", "nan"),
    ("--n", "4", "--t", "-1"),
    ("--x", "0", "--tol", "1e-3"),
    ("--x", "0.5", "--tol", "-1"),
    ("--x", "0.5", "--tol", "nan"),
    # finite, but the step product overflows
    ("--pair", "random:4", "--n", "1", "--t", "1e300"),
])
def test_bench_custom_rejects_bad_numbers(capsys, tmp_path, flags):
    out = tmp_path / "bad.csv"
    code, _, err = run(capsys, "bench", "--custom", "--schemes", "U21",
                       *flags, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_bench_figure_out_under_a_file_is_input_error(capsys, tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "bench", "--figure", "fig6",
                         "--out", str(blocker / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {blocker}") and len(err.strip().splitlines()) == 1


def test_bench_figure_creates_out_directory(capsys, tmp_path):
    out = tmp_path / "new" / "dir" / "fig6.csv"
    code, stdout, _ = run(capsys, "bench", "--figure", "fig6", "--out", str(out))
    assert code == 0
    # the count printed is the written file's lines that are not comments
    lines = [line for line in out.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    assert stdout == f"fig6: wrote {out} ({len(lines)} lines incl. headers)\n"


def test_internal_error_exits_distinct_code(capsys, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "export_figure", broken)
    code, _, err = run(capsys, "bench", "--figure", "fig6",
                       "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_INTERNAL
    assert code not in (0, 1, 2)
    assert err.strip().splitlines()[-1] == "internal error: RuntimeError: boom"


def test_bench_figure_and_custom_exclusive(capsys):
    code, _, err = run(capsys, "bench", "--figure", "fig6", "--custom")
    assert code == 2
    assert "not allowed" in err


def test_bench_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COMMEXP_OUT_DIR", str(tmp_path / "exports"))
    code, text, _ = run(
        capsys, "bench", "--custom", "--schemes", "U21", "--pair", "pauli",
        "--n", "2,4")
    assert code == 0
    assert (tmp_path / "exports" / "custom.csv").exists()
    assert str(tmp_path / "exports") in text


def test_bench_random_pair_spec(capsys, tmp_path):
    out = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "bench", "--custom", "--schemes", "U21", "--pair", "random:4",
        "--n", "2,4", "--out", str(out))
    assert code == 0
    rows = [l for l in out.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")]
    assert rows[1].split(",")[1] == "random:4"


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_aor4(capsys):
    code, out, _ = run(capsys, "optimize", "--family", "aor4",
                       "--range", "0.25:0.4")
    assert code == 0
    assert "minimizer d2 = 0.301895" in out
    assert "deviation" in out
    deviation = float(out.rsplit("deviation", 1)[1])
    assert deviation < 1e-6


def test_optimize_negative_range_survives_argparse(capsys):
    code, out, _ = run(capsys, "optimize", "--family", "third_order",
                       "--range", "-1.0:-0.5")
    assert code == 0
    assert "minimizer c5 = -0.786151" in out
    assert "reference c5* = -0.7861513778" in out


@pytest.mark.parametrize("family,prange,reason", [
    ("third_order", "-1:1", "c5 must be nonzero"),  # c5 = 0 is a grid point
    ("aor4", "0.1:1e300", "non-finite powers"),
])
def test_optimize_grid_member_failure_is_input_error(capsys, family, prange, reason):
    code, out, err = run(capsys, "optimize", "--family", family, "--range", prange)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and reason in err


def test_optimize_minimum_past_range_edge_is_input_error(capsys):
    # the minimizer d2* = 0.302 lies below the range
    code, out, err = run(capsys, "optimize", "--family", "aor4", "--range", "0.5:2")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "range edge d2 = 0.5" in err


@pytest.mark.parametrize("family,prange,expected", [
    ("third_order", "0.4:1.2",
     "third_order: minimizer c5 = 0.7861513792, E = 2.854229\n"
     "closed-form reference c5* = 0.7861513778, deviation 1.428e-09\n"),
    ("aor4", "0.1:0.6",
     "aor4: minimizer d2 = 0.3018950608, E = 7.4793847\n"
     "closed-form reference d2* = 0.3018950640, deviation 3.172e-09\n"),
])
def test_optimize_interior_minimum_output(capsys, family, prange, expected):
    code, out, _ = run(capsys, "optimize", "--family", family, "--range", prange)
    assert code == 0
    assert out == expected
    assert float(out.rsplit("deviation", 1)[1]) <= 1e-8


def test_optimize_rejects_malformed_range(capsys):
    code, _, err = run(capsys, "optimize", "--family", "aor4", "--range", "x:y")
    assert code == 2
    assert "numeric bounds" in err


@pytest.mark.parametrize("prange", ["0.4:inf", "-inf:1", "nan:1"])
def test_optimize_rejects_non_finite_range(capsys, prange):
    code, _, err = run(capsys, "optimize", "--family", "third_order", "--range", prange)
    assert code == 2
    assert err.startswith("error: --range ") and len(err.strip().splitlines()) == 1


def test_optimize_rejects_empty_range(capsys):
    code, _, err = run(capsys, "optimize", "--family", "aor4", "--range", "2:2")
    assert code == 2
    assert "empty parameter range" in err


def test_optimize_unknown_family(capsys):
    code, _, err = run(capsys, "optimize", "--family", "nosuch", "--range", "0:1")
    assert code == 2
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# python -m commexp
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme,code", [("NCP10_4", 0), ("NOPE", 2)])
def test_module_entry_point_exits_with_main_code(scheme, code):
    # scripts read exit 1 as "order NOT verified", so the module entry point
    # must hand on main's code: 0 verified, 2 for an unknown scheme
    src = str(Path(commexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "commexp", "verify", "--scheme", scheme],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert "NCP10_4: order 4 verified" in done.stdout
    else:
        assert "NOPE" in done.stderr


@pytest.mark.parametrize("argv,code", [
    (["schemes", "list"], 0),
    (["verify", "--scheme", "NCP10_4"], 0),
    # the code a command has reached when its output meets the closed pipe
    (["verify", "--scheme", "NCP10_4", "--tol", "1e-300"], 1),
])
def test_a_closed_stdout_is_no_usage_error(argv, code):
    # a reader that stops early (| head -1) is not bad input: with the read
    # end closed before the child writes, every write fails with EPIPE
    src = str(Path(commexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)  # the output meets the pipe at the last flush
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "commexp", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == code, done.stderr
    assert done.stderr == ""
