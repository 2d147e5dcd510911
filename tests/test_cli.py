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
from commexp import bench, conditions, liealg, matform
from commexp.cli import EXIT_INTERNAL, main
from commexp.liealg import Generator
from commexp.schemes import (ExponentSlot, catalog_get, catalog_names, load_scheme,
                             save_scheme, third_order_rows)


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


def test_schemes_show_prints_a_complex_coefficient_with_its_imaginary_part(capsys):
    code, out, _ = run(capsys, "schemes", "show", "PCP6_3_imaginary")
    assert code == 0
    printed = [line.split()[-1] for line in out.splitlines() if line.startswith("  slot ")]
    assert printed == [f"{slot.coefficient.real:.17g}{slot.coefficient.imag:+.17g}j"
                       for slot in catalog_get("PCP6_3_imaginary").slots]


def test_schemes_show_unknown_name(capsys):
    code, _, err = run(capsys, "schemes", "show", "nosuch")
    assert code == 2
    assert "unknown scheme" in err
    assert "schemes list" in err


def _exported(tmp_path, name, coefficients=None):
    """The path of catalog scheme ``name`` written as a scheme file, with
    the slot coefficients ``coefficients`` ({slot index: coefficient})
    replaced."""
    scheme = catalog_get(name)
    coefficients = coefficients or {}
    slots = [dataclasses.replace(slot, coefficient=coefficients.get(i, slot.coefficient))
             for i, slot in enumerate(scheme.slots)]
    path = tmp_path / f"{name}.scheme.json"
    save_scheme(dataclasses.replace(scheme, slots=tuple(slots)), path)
    return path


def test_schemes_show_reads_a_scheme_file(capsys, tmp_path):
    # the file prints as its catalog entry, but for the note a file does
    # not carry
    path = _exported(tmp_path, "NCP10_4")
    _, catalog, _ = run(capsys, "schemes", "show", "NCP10_4")
    code, from_file, _ = run(capsys, "schemes", "show", str(path))
    assert code == 0
    notes = [line for line in catalog.splitlines() if line.startswith("note: ")]
    assert len(notes) == 1
    assert from_file.splitlines() == [line for line in catalog.splitlines()
                                      if line not in notes]


@pytest.mark.parametrize("argv", [
    ("schemes", "show", "nosuch"),
    ("schemes", "export", "nosuch", "x.json"),
    ("verify", "--scheme", "nosuch"),
    ("bench", "--custom", "--schemes", "NCP10_4,nosuch", "--n", "1", "--out", "x.csv"),
])
def test_every_command_names_an_unknown_scheme_alike(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: unknown scheme 'nosuch': neither a catalog scheme nor a scheme "
                   "file; run 'commexp schemes list' for the catalog\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc, message", [
    ({}, "missing field 'name'"),
    # a target of no terms: verify read it as NOT verified, and bench --custom
    # failed in min() of no degrees, naming no file
    ({"name": "x", "order": 2, "target": {"name": "commutator", "terms": []},
      "slots": [{"generator": "A", "coefficient": 1.0}]},
     "field 'target.terms': target 'commutator' has no terms"),
], ids=["empty", "no-terms"])
@pytest.mark.parametrize("command", [("schemes", "show"), ("verify", "--scheme"),
                                     ("bench", "--custom", "--n", "1", "--schemes")])
def test_every_command_refuses_a_malformed_scheme_file(capsys, tmp_path, command, doc, message):
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


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


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_scheme_reloads_equal_and_verifies_alike(capsys, tmp_path, name):
    # a file carries no note; all else reads back as the catalog entry, and
    # verify prints the same lines for the name and for the file
    path = tmp_path / "exported.scheme.json"
    assert run(capsys, "schemes", "export", name, str(path))[0] == 0
    assert load_scheme(path) == dataclasses.replace(catalog_get(name), note="")
    assert run(capsys, "verify", "--scheme", str(path)) == run(capsys, "verify", "--scheme", name)


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


_GOOD_FILE = {"name": "x", "order": 2,
              "target": {"name": "commutator", "terms": [[2, 1, 1.0, 0.0]]},
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
     "'target.terms[0]': target degree must be an integer, got 2.7"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": True}]},
     "'slots[0].coefficient' must be"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": "-0.48586827175664576"}]},
     "'slots[0].coefficient': '-0.48586827175664576' is text, not a number"),
    ({**_GOOD_FILE, "target": {"name": "commutator",
                               "terms": [[2, 1, 1.0, 0.0], [2, 1, 2.0, 0.0]]}},
     "'target.terms[1]' repeats"),
    ({**_GOOD_FILE, "slots": [{"generator": "A", "coefficient": 10 ** 400}]},
     "'slots[0].coefficient': slot coefficient must be finite"),
])
def test_verify_malformed_scheme_file_is_input_error(capsys, tmp_path, doc, field):
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--scheme", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and field in err


@pytest.mark.parametrize("coefficient", [[1.0, None], {"re": 1}, None],
                         ids=["list-with-null", "object", "null"])
def test_verify_names_a_coefficient_that_is_no_number(capsys, tmp_path, coefficient):
    # the reader passed on Python's own message, which offers a string:
    # "float() argument must be a string or a real number, not 'NoneType'"
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps({**_GOOD_FILE, "slots": [{"generator": "A",
                                                         "coefficient": coefficient}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "verify", "--scheme", str(path))
    shown = repr(coefficient[1] if isinstance(coefficient, list) else coefficient)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: field 'slots[0].coefficient': {shown} is not a number\n"


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
    reason = f"tol must be positive and finite, got {float(tol)!r}"
    assert err == f"error: cannot verify NCP6_3: {reason}\n"


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


@pytest.mark.parametrize("pair", ["pauli", "random:16"])
@pytest.mark.parametrize("flags", [("--n", "1,4,64"), ("--x", "0.3,0.9", "--tol", "1e-6")])
def test_bench_custom_reads_a_scheme_file_as_its_catalog_entry(capsys, tmp_path, pair, flags):
    # an exported NCP10_4 file gives the catalog entry's table, comment and
    # data lines byte for byte
    written = []
    for spec in ("NCP10_4", str(_exported(tmp_path, "NCP10_4"))):
        out = tmp_path / "custom.csv"
        code, _, _ = run(capsys, "bench", "--custom", "--schemes", spec, "--pair", pair,
                         "--seed", "11", *flags, "--out", str(out))
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert b"\nNCP10_4," in written[0]


_READS = {"--custom --n": "--schemes, --pair, --seed, --t, --n and --out",
          "--custom --x": "--schemes, --pair, --seed, --x, --tol and --out"}


@pytest.mark.parametrize("mode,flags,named", [
    ("--custom --n", ("--n", "2", "--tol", "1e-4"), "--tol"),
    ("--custom --n", ("--n", "2", "--x", "0.5"), "--x"),
    ("--custom --n", ("--x", "0.5", "--tol", "1e-4", "--n", "2", "--t", "5"), "--x, --tol"),
    ("--custom --x", ("--x", "0.5", "--tol", "1e-4", "--t", "5"), "--t"),
])
def test_bench_custom_refuses_options_its_mode_does_not_read(capsys, tmp_path, monkeypatch,
                                                            mode, flags, named):
    # an error curve reads no tolerance and no x grid, a cost table no total
    # time: each is an input error naming it, before any pair is built
    def refused(*args):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(matform, "make_pair", refused)
    out = tmp_path / "custom.csv"
    code, text, err = run(capsys, "bench", "--custom", "--schemes", "NCP10_4",
                          "--pair", "random:4", *flags, "--out", str(out))
    assert code == 2
    assert text == ""
    assert err == f"error: {mode} takes only {_READS[mode]}, not {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--n", "1"), ("--x", "0.5", "--tol", "1e-4")])
def test_bench_custom_overflowing_scheme_is_input_error(capsys, tmp_path, flags):
    # an A slot of coefficient 1e200 overflows the product on random:4: an
    # error curve and a cost table both exit 2 with one line and no file
    a_slot = next(i for i, slot in enumerate(catalog_get("NCP10_4").slots)
                  if slot.generator is Generator.A)
    path = _exported(tmp_path, "NCP10_4", {a_slot: 1e200})
    out = tmp_path / "big.csv"
    code, text, err = run(capsys, "bench", "--custom", "--schemes", str(path),
                          "--pair", "random:4", *flags, "--out", str(out))
    assert code == 2
    assert text == ""
    assert err.startswith("error: cannot evaluate the ") and len(err.strip().splitlines()) == 1
    assert "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--n", "1"), ("--x", "0.5", "--tol", "1e-4")])
def test_bench_custom_unbounded_eigenbasis_product_is_input_error(capsys, tmp_path, flags):
    # on pauli the same slot runs the eigenbasis walk, whose phases
    # exp(1e200 t lambda) keep no correct digit: its stated error bound
    # reaches 1, so an error curve and a cost table both exit 2 with one
    # line and no file, as verify of that file does
    a_slot = next(i for i, slot in enumerate(catalog_get("NCP10_4").slots)
                  if slot.generator is Generator.A)
    path = _exported(tmp_path, "NCP10_4", {a_slot: 1e200})
    out = tmp_path / "big.csv"
    code, text, err = run(capsys, "bench", "--custom", "--schemes", str(path),
                          "--pair", "pauli", *flags, "--out", str(out))
    assert code == 2
    assert text == ""
    assert err.startswith("error: cannot evaluate the ") and len(err.strip().splitlines()) == 1
    assert "the eigenbasis product's error bound" in err and err.endswith(" reaches 1\n")
    assert not out.exists()
    assert run(capsys, "verify", "--scheme", str(path))[0] == 2


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


@pytest.mark.parametrize("flags, message", [
    (("--n", "1,x"), "--n needs comma-separated integers, got '1,x'"),
    (("--x", "0.5,y", "--tol", "1e-4"), "--x needs comma-separated numbers, got '0.5,y'"),
    (("--x", "0.5"), "--x needs a nonempty grid and --tol"),
], ids=["n not an integer", "x not a number", "x without tol"])
def test_bench_custom_refuses_a_malformed_grid(capsys, tmp_path, flags, message):
    out = tmp_path / "x.csv"
    code, text, err = run(capsys, "bench", "--custom", "--schemes", "NCP6_3", *flags,
                          "--out", str(out))
    assert (code, text, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


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
    # an integer step count past the largest float: an OverflowError exited 3
    ("--pair", "pauli", "--n", "1" + "0" * 400),
])
def test_bench_custom_rejects_bad_numbers(capsys, tmp_path, flags):
    out = tmp_path / "bad.csv"
    code, _, err = run(capsys, "bench", "--custom", "--schemes", "U21",
                       *flags, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


_CURVE = ("bench", "--custom", "--schemes", "NCP6_3", "--pair", "pauli")
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("argv, context, library", [
    (("verify", "--scheme", "NCP6_3", "--tol", "nan"), "cannot verify NCP6_3: ",
     lambda: conditions.order_residuals(catalog_get("NCP6_3"), catalog_get("NCP6_3").target,
                                        3, _NAN)),
    ((*_CURVE, "--n", "4", "--t", "-1"), "cannot evaluate the error curve at t = -1: ",
     lambda: bench.curve_table(["NCP6_3"], [matform.make_pair("pauli")], -1.0, [4])),
    ((*_CURVE, "--n", "0"), "cannot evaluate the error curve at t = 1: ",
     lambda: bench.curve_table(["NCP6_3"], [matform.make_pair("pauli")], 1.0, [0])),
    ((*_CURVE, "--x", "0", "--tol", "1e-3"), "cannot evaluate the cost table at tol = 0.001: ",
     lambda: bench.cost_table(["NCP6_3"], matform.make_pair("pauli"), [0.0], 1e-3)),
    ((*_CURVE, "--x", "0.5", "--tol", "nan"), "cannot evaluate the cost table at tol = nan: ",
     lambda: bench.cost_table(["NCP6_3"], matform.make_pair("pauli"), [0.5], _NAN)),
    (("optimize", "--family", "third_order", "--range", "0.4:inf"), "",
     lambda: conditions.optimize_free_parameter(third_order_rows, 3, (0.4, _INF))),
    (("optimize", "--family", "third_order", "--range", "2:2"), "",
     lambda: conditions.optimize_free_parameter(third_order_rows, 3, (2.0, 2.0))),
], ids=["verify tol", "curve t", "curve n", "table x", "table tol", "range bound",
        "range empty"])
def test_a_refused_value_is_the_library_message(capsys, tmp_path, argv, context, library):
    # the CLI judges no value itself: the one error line is the library's
    # ValueError for the same value, after the command's context
    with pytest.raises(ValueError) as refused:
        library()
    out = tmp_path / "x.csv"
    code, text, err = run(capsys, *argv, *(("--out", str(out)) if argv[0] == "bench" else ()))
    assert (code, text) == (2, "")
    assert err == f"error: {context}{refused.value}\n"
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


@pytest.mark.parametrize("flags,named", [
    (("--schemes", "NCP10_4"), "--schemes"),
    (("--pair", "random:3"), "--pair"),
    (("--pair", "pauli"), "--pair"),
    (("--t", "1.0"), "--t"),
    (("--n", "3"), "--n"),
    (("--x", "0.5"), "--x"),
    (("--tol", "1e-4"), "--tol"),
    (("--schemes", "NCP10_4", "--n", "3"), "--schemes, --n"),
])
def test_bench_figure_refuses_custom_options(capsys, tmp_path, flags, named):
    # a figure fixes its schemes, pairs and grids: an option only --custom
    # reads is an input error naming it, not silently dropped
    out = tmp_path / "fig1.csv"
    code, text, err = run(capsys, "bench", "--figure", "fig1", *flags,
                          "--seed", "3", "--out", str(out))
    assert code == 2
    assert text == ""
    assert err == f"error: --figure takes only --seed and --out, not {named}\n"
    assert not out.exists()


def test_bench_figure_choices(capsys):
    code, text, _ = run(capsys, "bench", "--help")
    assert code == 0
    assert "--figure {fig1,fig2,fig3,fig5,fig6}" in text
    code, _, err = run(capsys, "bench", "--figure", "fig4")
    assert code == 2
    assert "invalid choice" in err


def test_bench_pair_too_large_to_allocate_is_input_error(capsys, tmp_path):
    # numpy refuses the 74.5 GiB draw at once; only a size this far past any
    # memory is tried here, never one that could be allocated
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "bench", "--custom", "--schemes", "NCP10_4",
                       "--pair", "random:100000", "--n", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("error: --pair random:100000: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


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


def test_engine_commands_make_no_checked_projection(capsys, tmp_path, monkeypatch):
    # verify (by catalog name and by scheme file), refine and optimize take
    # their coordinates from scheme_log and the pseudoinverse alone: each
    # makes scheme_log passes and no lie_project call
    calls = {"scheme_log": 0, "lie_project": 0}
    for name in calls:
        def spy(*args, _name=name, _engine=getattr(liealg, name), **kwargs):
            calls[_name] += 1
            return _engine(*args, **kwargs)

        monkeypatch.setattr(liealg, name, spy)
    scheme = catalog_get("NCP10_4")
    start = dataclasses.replace(scheme, slots=tuple(
        dataclasses.replace(slot, coefficient=slot.coefficient * (1 + 1e-6))
        for slot in scheme.slots))
    actions = {
        "verify by name": lambda: run(capsys, "verify", "--scheme", "NCP10_4")[0] == 0,
        "verify by file": lambda: run(capsys, "verify", "--scheme",
                                      str(_exported(tmp_path, "NCP10_4")))[0] == 0,
        "refine": lambda: conditions.order_residuals(
            conditions.refine(start), scheme.target, scheme.order).all_satisfied(),
        "optimize": lambda: run(capsys, "optimize", "--family", "aor4",
                                "--range", "0.25:0.4")[0] == 0,
    }
    for action, ok in actions.items():
        calls.update(scheme_log=0, lie_project=0)
        assert ok(), action
        assert calls["scheme_log"] > 0 and calls["lie_project"] == 0, (action, calls)


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
    code, out, err = run(capsys, "optimize", "--family", "third_order", "--range", prange)
    assert code == 2
    assert out == ""
    bounds = tuple(float(tok) for tok in prange.split(":"))
    assert err == f"error: the parameter range needs finite bounds, got {bounds!r}\n"


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


def test_series_commands_never_load_the_dense_layer(tmp_path):
    # verify, schemes and optimize run on the series engine alone; the
    # package serves the dense layer's names on first use
    src = str(Path(commexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys; from commexp import cli\n"
        "for argv in (['verify', '--scheme', 'NCP10_4'], ['schemes', 'list'],\n"
        "             ['schemes', 'export', 'NCP10_4', sys.argv[1]]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = [m for m in ('commexp.matform', 'commexp.bench') if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
        "from commexp import make_pair\n"
        "assert 'commexp.matform' in sys.modules\n"
        "assert make_pair is sys.modules['commexp.matform'].make_pair\n"
        "print('ok')\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "NCP10_4.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


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
