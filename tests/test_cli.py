"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import cyc_matrix
from hypothesis import given, settings, strategies as st

import spinmtc
import spinmtc.axioms
import spinmtc.fusion

from spinmtc import ROWS_PER_WRITE, _json_parts
from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.category_cli import MAX_PUNCTURES
from spinmtc.cli import _HANDLERS, build_parser, main
from spinmtc.clifford import classify_labels, find_vminus
from spinmtc.cyclotomic import Cyclotomic
from spinmtc.exactnum import CycMatrix, compute_smatrix, verify_block_structure
from spinmtc.fusion import FormatError, FusionData, deligne_product
from spinmtc.fusionfile import MAX_CONDUCTOR, dump_fusion, fusion_from_dict
from spinmtc.minimal import (
    MinimalModelSpec,
    central_charge,
    enumerate_labels,
    sector_counts,
    valid_pairs,
)
from spinmtc.model_cli import MAX_PQ
from spinmtc.spinfunctor import SpinSphereSpec, sphere_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- happy paths ----------------------------------------------------------------


def test_validate_builtin(capsys):
    code, out, err = run(capsys, "validate", "fermion")
    assert code == 0
    assert "valid" in out
    assert err == ""


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "fermion", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["violations"] == []


def test_smatrix_table_and_scalar(capsys):
    code, out, _ = run(capsys, "smatrix", "fermion")
    assert code == 0
    assert "alpha = 4" in out
    assert "z16^2 - z16^6" in out


def test_smatrix_numeric_annotation(capsys):
    code, out, _ = run(capsys, "smatrix", "fermion", "--numeric", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["numeric"]["digits"] == 4
    assert "not authoritative" in report["numeric"]["note"]
    assert report["numeric"]["entries"][0][2] == "1.414"

    for digits in ("-1", "18"):
        code, out, err = run(capsys, "smatrix", "fermion", "--numeric", digits)
        assert code == 2
        assert out == ""
        assert f"invalid choice: {digits}" in err
        assert "Traceback" not in err and "specifier" not in err
    code, _, _ = run(capsys, "smatrix", "fermion", "--numeric", "17")
    assert code == 0


# the least arguments each subcommand parses
_MINIMAL_ARGV = {
    "validate": ["fermion"], "smatrix": ["fermion"], "classify": ["fermion"],
    "sphere": ["fermion", "--labels", "sigma"], "torus": ["fermion"],
    "minimal": ["--p", "3", "--q", "5"], "minimal-scan": ["--max-pq", "20"],
    "singvec": [], "builtin": ["fermion"],
}


def test_each_subcommand_accepts_only_the_options_it_reads(capsys):
    assert set(_MINIMAL_ARGV) == set(_HANDLERS)
    parser = build_parser()
    accepts = {}
    for flag, value in (("--numeric", "3"), ("--format", "json")):
        for command, argv in _MINIMAL_ARGV.items():
            try:
                parser.parse_args([command, *argv, flag, value])
            except SystemExit as exc:
                assert exc.code == 2
            else:
                accepts.setdefault(flag, set()).add(command)
    assert accepts == {"--numeric": {"smatrix", "minimal", "singvec"}, "--format": set(_HANDLERS)}
    capsys.readouterr()
    code, out, err = run(capsys, "builtin", "fermion", "--numeric", "2")
    assert (code, out) == (2, "")
    assert err.startswith("usage: spinmtc") and err.endswith("unrecognized arguments: --numeric 2\n")
    # builtin writes the file format whatever --format says
    assert run(capsys, "builtin", "fermion", "--format", "json") == run(capsys, "builtin", "fermion")


def test_one_command_parser_prints_as_the_full_parser(capsys):
    # main builds only the named command's subparser; its usage, help and
    # parses must be the full parser's
    full = build_parser()
    subparsers = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(_HANDLERS)
    for command, argv in _MINIMAL_ARGV.items():
        alone = build_parser(command)
        assert alone.format_usage() == full.format_usage()
        assert alone.parse_args([command, *argv]) == full.parse_args([command, *argv])
        assert run(capsys, command, "--help") == (0, subparsers[command].format_help(), "")


def test_classify_fermion(capsys):
    code, out, _ = run(capsys, "classify", "fermion", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == {
        "ns_plus": ["1"],
        "ns_minus": ["psi"],
        "r_plus": [],
        "r_minus": [],
        "r_zero": ["sigma"],
    }
    assert report["all_pass"] is True
    assert set(report["checks"]) == {
        "involution_rows",
        "nonsplit_row_vanishing",
        "block_pattern",
        "diagonal_blocks",
        "bd_rank",
        "btd_zero",
        "count_identity",
    }


def test_sphere_and_torus(capsys):
    code, out, _ = run(capsys, "sphere", "fermion", "--labels", "sigma,sigma")
    assert code == 0
    assert "total dimension      4" in out
    assert "component dimension  2" in out

    # an odd R0 count: the Clifford algebra's class is the generator of Z/2
    code, out, _ = run(capsys, "sphere", "fermion", "--labels", "sigma,sigma,sigma")
    assert code == 0
    assert out == (
        "fermion: sphere with punctures ['sigma', 'sigma', 'sigma']\n"
        "  total dimension      0\n"
        "  component dimension  0\n"
        "  odd punctures        3 (clifford algebra on 3 generators, parity 1)\n"
        "  epsilon table:\n"
        + "".join(f"    {i:03b}  0\n" for i in range(8))
    )
    code, out, _ = run(capsys, "sphere", "fermion", "--labels", "sigma,sigma,sigma", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_rank"] == 3
    assert report["lambda_class"] == {"generators": 3, "parity": 1}

    code, out, _ = run(capsys, "torus", "fermion", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == {"AA": 1, "AP": 1, "PA": 1, "PP": 0}


def test_minimal_table(capsys):
    code, out, _ = run(capsys, "minimal", "--p", "3", "--q", "5")
    assert code == 0
    assert "c = 7/10" in out
    assert "3/80" in out


def test_minimal_scan(capsys):
    code, out, _ = run(capsys, "minimal-scan", "--max-pq", "50", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 15
    assert report["models"][0] == {
        "p": 2,
        "q": 4,
        "c": "0/1",
        "ns_count": 1,
        "r_count": 1,
        "split": False,
    }

    # the closed-form rows against the enumerated labels
    code, out, _ = run(capsys, "minimal-scan", "--max-pq", "300", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 170
    for row in report["models"]:
        labels = enumerate_labels(MinimalModelSpec(row["p"], row["q"]))
        ramond = [lab for lab in labels if lab.sector == "R"]
        assert row["ns_count"] == len(labels) - len(ramond), row
        assert row["r_count"] == len(ramond), row
        assert {lab.split for lab in ramond} == {row["split"]}, row

    # JSON is written a block of encoder chunks at a time (here about five
    # blocks); the bytes are those of the whole dump
    code, out, _ = run(capsys, "minimal-scan", "--max-pq", "1000", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _scan_oracles(max_pq: int) -> tuple[str, str]:
    """minimal-scan's JSON and table output, from the whole report at once
    (``test_minimal_scan`` checks the counts against the enumerated labels)."""
    models = []
    for spec in valid_pairs(max_pq):
        c = central_charge(spec)
        ns, rr = sector_counts(spec)
        models.append({"p": spec.p, "q": spec.q, "c": f"{c.numerator}/{c.denominator}",
                       "ns_count": ns, "r_count": rr, "split": (spec.p - 1) * (spec.q - 1) % 2 == 0})
    obj = {"max_pq": max_pq, "count": len(models), "models": models}
    rows = [["p", "q", "c", "NS", "R", "split"]] + [
        [str(m["p"]), str(m["q"]), str(Fraction(m["c"])), str(m["ns_count"]), str(m["r_count"]),
         str(m["split"]).lower()] for m in models]
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    lines = ["  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip() for row in rows]
    table = f"{len(models)} models with p*q <= {max_pq}\n" + "\n".join(lines) + "\n"
    return json.dumps(obj, indent=2) + "\n", table


@pytest.mark.parametrize("max_pq", [4, 8, 50, 6000])
def test_streamed_minimal_scan_equals_whole_dump(capsys, max_pq):
    # 6000 has 6116 models: more than one block of ROWS_PER_WRITE rows
    json_text, table = _scan_oracles(max_pq)
    assert run(capsys, "minimal-scan", "--max-pq", str(max_pq), "--format", "json") == (0, json_text, "")
    assert run(capsys, "minimal-scan", "--max-pq", str(max_pq)) == (0, table, "")


def test_minimal_table_from_labels(capsys):
    for p, q in ((2, 4), (3, 5), (4, 6), (5, 9)):
        spec = MinimalModelSpec(p, q)
        code, out, _ = run(capsys, "minimal", "--p", str(p), "--q", str(q))
        assert code == 0
        labels = enumerate_labels(spec)
        rows = [row.split() for row in out.splitlines()[2:]]
        assert [row[:3] for row in rows] == [[lab.sector, f"({lab.r},{lab.s})", str(lab.h)] for lab in labels]
        assert [row[3:] for row in rows] == [[] if lab.split is None else [str(lab.split).lower()]
                                             for lab in labels]


def test_singvec_by_model(capsys):
    code, out, _ = run(capsys, "singvec", "--p", "3", "--q", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == "4"
    assert report["space_dim"] == 1
    assert report["leading_monomial"] == "G[-5/2] G[-3/2]"
    assert report["lambda"] == "-2/3"
    assert report["shape_ok"] is True


def test_singvec_by_parameters(capsys):
    code, out, _ = run(
        capsys, "singvec", "--c", "7/10", "--h", "1/10", "--degree", "3/2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["vector"] == [{"monomial": "G[-3/2]", "coeff": "1/1"}]


def test_builtin_emits_loadable_file(capsys, tmp_path):
    code, out, _ = run(capsys, "builtin", "toric")
    assert code == 0
    path = tmp_path / "toric.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "valid" in out2


def test_unknown_builtin_key_is_argparse_exit_2(capsys):
    code, out, err = run(capsys, "builtin", "nosuch")
    assert (code, out) == (2, "")
    choices = ", ".join(map(repr, BUILTIN_KEYS))
    assert err.endswith(f"error: argument key: invalid choice: 'nosuch' (choose from {choices})\n")
    assert BUILTIN_KEYS == ("trivial", "fermion", "dirac", "toric", "fibonacci")


@pytest.mark.parametrize("key", BUILTIN_KEYS)
def test_builtin_is_the_fusion_data_of_its_file(key):
    data = builtin(key)
    assert isinstance(data, FusionData) and data.name == key
    assert fusion_from_dict(json.loads(dump_fusion(data))) == data == builtin(key)
    with pytest.raises(FormatError, match="available: trivial, fermion, dirac, toric, fibonacci"):
        builtin(key + "x")


def test_real_file_wins_over_builtin_key(capsys, tmp_path, monkeypatch):
    # A file literally named "fermion" in cwd takes precedence.
    code, out, _ = run(capsys, "builtin", "dirac")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fermion").write_text(out)
    code, out, _ = run(capsys, "validate", "fermion", "--format", "json")
    assert code == 0
    assert json.loads(out)["category"] == "dirac"
    # and is checked as any file is, though a builtin key is trusted: with one
    # associativity break, the commands refuse it or (smatrix) fail s^2
    (tmp_path / "fermion").write_text(_fermion_edited(capsys, tmp_path, _drop_sigma_sigma_psi).read_text())
    first = _first_violation(capsys, Path("fermion"))
    assert first.startswith("associativity at ")
    for argv in (["torus"], ["sphere", "--labels", "sigma,sigma"], ["classify"]):
        assert run(capsys, argv[0], "fermion", *argv[1:]) == (1, "", f"error: 'fermion' fails validate: {first}\n")
    code, out, err = run(capsys, "smatrix", "fermion", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["squares_to_conjugation"] is False


_TRUSTING = {
    "smatrix": ["smatrix", "{}"],
    "classify": ["classify", "{}"],
    "sphere": ["sphere", "{}", "--labels", "sigma,sigma"],
    "torus": ["torus", "{}"],
}


@pytest.mark.parametrize("argv", list(_TRUSTING.values()), ids=list(_TRUSTING))
def test_builtin_key_is_trusted_and_a_file_is_checked(capsys, tmp_path, monkeypatch, argv):
    calls = []

    def refuse(name):
        def check(data):
            calls.append(name)
            raise AssertionError(f"{name} ran on {data.name!r}")
        return check

    with monkeypatch.context() as m:
        for module, name in ((spinmtc.fusion, "structure_violations"), (spinmtc.axioms, "axiom_violations"),
                             (spinmtc.axioms, "validate")):
            m.setattr(module, name, refuse(name))
        code, out, err = run(capsys, *[a.format("fermion") for a in argv])
    assert (code, err, calls) == (0, "", [])
    assert out
    path = tmp_path / "fermion.json"
    path.write_text(dump_fusion(builtin("fermion")))
    real = {"structure_violations": spinmtc.fusion.structure_violations,
            "axiom_violations": spinmtc.axioms.axiom_violations}

    def spy(name):
        def check(data):
            calls.append(name)
            return real[name](data)
        return check

    monkeypatch.setattr(spinmtc.fusion, "structure_violations", spy("structure_violations"))
    monkeypatch.setattr(spinmtc.axioms, "axiom_violations", spy("axiom_violations"))
    assert run(capsys, *[a.format(path) for a in argv])[0] == 0
    # smatrix answers on data that fails the axioms, so it checks the structure alone
    assert calls == ["structure_violations"] + ["axiom_violations"] * (argv[0] != "smatrix")


def test_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "classify", "dirac", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_report_round_trip_through_file(capsys, tmp_path):
    # Reports computed from a re-ingested builtin dump are byte-identical.
    _, dump, _ = run(capsys, "builtin", "fermion")
    path = tmp_path / "f.json"
    path.write_text(dump)
    results = {}
    for target in ("fermion", str(path)):
        for cmd in (
            ["validate", target, "--format", "json"],
            ["smatrix", target, "--format", "json"],
            ["classify", target, "--format", "json"],
            ["torus", target, "--format", "json"],
        ):
            code = main(cmd)
            out = capsys.readouterr().out
            assert code == 0
            results.setdefault(tuple(cmd[:1]), []).append(out)
    for cmd, (from_key, from_file) in results.items():
        assert from_key == from_file, cmd


# --- failure paths -----------------------------------------------------------------


def test_unknown_input_is_exit_2(capsys):
    code, _, err = run(capsys, "validate", "nosuchthing")
    assert code == 2
    assert "no such file or builtin" in err


def test_corrupted_field_gives_witness_not_crash(capsys, tmp_path):
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    corruptions = [
        ("fusion", [e if e[:3] != ["sigma", "sigma", "psi"] else e[:3] + [2] for e in doc["fusion"]]),
        ("qdim", {**doc["qdim"], "sigma": "2"}),
        ("dual", {**doc["dual"], "psi": "sigma"}),
        ("unit", "psi"),
    ]
    for field, bad_value in corruptions:
        bad = dict(doc)
        bad[field] = bad_value
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert code == 1, field
        report = json.loads(out)
        assert report["valid"] is False
        assert report["violations"], field
        assert report["violations"][0]["witness"], field


def test_malformed_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2

    path2 = tmp_path / "extra.json"
    _, dump, _ = run(capsys, "builtin", "trivial")
    doc = json.loads(dump)
    doc["surprise"] = 1
    path2.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path2))
    assert code == 2
    assert "unknown keys" in err

    del doc["surprise"]
    for field, value, message in (("unit", 1, "unit must be a string"),
                                  ("fusion", {}, "fusion must be a list of [i, j, k, n] entries"),
                                  ("twist", [], "twist must map labels to rationals"),
                                  ("qdim", [], "qdim must map labels to cyclotomic values")):
        path3 = tmp_path / f"bad_{field}.json"
        path3.write_text(json.dumps({**doc, field: value}))
        code, _, err = run(capsys, "validate", str(path3))
        assert (code, err) == (2, f"error: {message}\n"), field

    directory = tmp_path / "x.json"
    directory.mkdir()
    code, _, err = run(capsys, "validate", str(directory))
    assert code == 2
    assert err.startswith(f"error: cannot read {directory}: "), err


def test_no_vminus_is_exit_1(capsys):
    code, _, err = run(capsys, "classify", "trivial")
    assert code == 1
    assert "no admissible odd generator" in err


def test_ambiguous_vminus_lists_candidates(capsys, tmp_path):
    # A product category with two odd generators requires --vminus.
    from spinmtc.catalog import builtin as make

    prod = deligne_product(make("fermion"), make("fermion"))
    path = tmp_path / "prod.json"
    path.write_text(dump_fusion(prod))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert "(1,psi)" in err and "(psi,1)" in err

    code, out, _ = run(capsys, "classify", str(path), "--vminus", "(1,psi)")
    assert code == 0

    code, _, err = run(capsys, "classify", str(path), "--vminus", "sigma")
    assert code == 2


def test_invalid_model_parameters_are_exit_2(capsys):
    code, _, err = run(capsys, "minimal", "--p", "3", "--q", "4")
    assert code == 2
    assert "equal parity" in err
    code, _, err = run(capsys, "singvec", "--p", "4", "--q", "8")
    assert code == 2


def test_mixed_singvec_flag_groups_are_exit_2(capsys):
    code, _, err = run(capsys, "singvec", "--p", "3")
    assert code == 2
    code, _, err = run(capsys, "singvec", "--p", "3", "--q", "5", "--c", "1/2")
    assert code == 2
    code, _, err = run(capsys, "singvec", "--c", "1/2", "--h", "0")
    assert code == 2


def test_degree_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SPINMTC_MAX_DEGREE", "4")
    code, _, err = run(capsys, "singvec", "--p", "3", "--q", "7")
    assert code == 2
    assert "exceeds the limit 4" in err

    monkeypatch.setenv("SPINMTC_MAX_DEGREE", "6")
    code, _, _ = run(capsys, "singvec", "--p", "3", "--q", "7")
    assert code == 0

    monkeypatch.setenv("SPINMTC_MAX_DEGREE", "many")
    code, _, err = run(capsys, "singvec", "--p", "3", "--q", "7")
    assert code == 2
    assert "SPINMTC_MAX_DEGREE" in err


def test_default_degree_cap_allows_the_reference_models(capsys, monkeypatch):
    monkeypatch.delenv("SPINMTC_MAX_DEGREE", raising=False)
    for p, q in [(2, 4), (3, 5), (3, 7), (2, 8), (2, 20), (5, 7)]:
        code, _, _ = run(capsys, "singvec", "--p", str(p), "--q", str(q))
        assert code == 0, (p, q)


def test_default_degree_cap_is_sixteen(capsys, monkeypatch):
    monkeypatch.delenv("SPINMTC_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "singvec", "--c", "1", "--h", "0", "--degree", "33/2")
    assert code == 2
    assert out == ""
    assert "degree 33/2 exceeds the limit 16" in err


def test_bad_flags_are_exit_2(capsys):
    assert main(["smatrix"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["sphere", "fermion"]) == 2
    capsys.readouterr()


def test_singvec_degree_must_be_a_positive_half_integer(capsys):
    for degree in ("-1", "0", "1/3"):
        code, out, err = run(capsys, "singvec", "--c", "1", "--h", "0", "--degree", degree)
        assert code == 2, degree
        assert out == ""
        assert "positive integer or half-integer" in err
    code, _, _ = run(capsys, "singvec", "--c", "1", "--h", "0", "--degree", "1/2")
    assert code == 0


def test_sphere_puncture_cap_is_exit_2(capsys):
    labels = ",".join(["sigma"] * (MAX_PUNCTURES + 1))
    code, out, err = run(capsys, "sphere", "fermion", "--labels", labels)
    assert code == 2
    assert out == ""
    assert f"limit {MAX_PUNCTURES}" in err
    # the cap is checked before the category is even loaded
    code, _, err = run(capsys, "sphere", "no-such-category", "--labels", labels)
    assert code == 2
    assert f"limit {MAX_PUNCTURES}" in err


def test_sphere_on_noncommuting_odd_generator_is_exit_1(capsys, tmp_path, skew):
    # validate rejects skew, so the CLI refuses it before the sphere's own
    # premise check (which the library tests reach directly)
    path = tmp_path / "skew.json"
    path.write_text(dump_fusion(skew))
    first = _first_violation(capsys, path)
    code, out, err = run(capsys, "sphere", str(path), "--labels", "a,b,v")
    assert code == 1
    assert out == ""
    assert err == f"error: 'skew' fails validate: {first}\n"
    assert "Traceback" not in err


def test_sphere_accepts_product_labels(capsys, tmp_path):
    # Product labels contain commas; --labels splits only outside parentheses.
    prod = deligne_product(builtin("fermion"), builtin("fermion"))
    path = tmp_path / "prod.json"
    path.write_text(dump_fusion(prod))
    labels = ("(1,psi)", "(1,psi)")
    vminus_all = find_vminus(prod)
    assert vminus_all == ["(1,psi)", "(psi,1)"]
    for vminus in vminus_all:
        argv = ["sphere", str(path), "--vminus", vminus, "--labels", "(1,psi),(1,psi)"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, (vminus, err)
        obj = json.loads(out)
        assert obj["boundary_labels"] == list(labels)
        expect = sphere_report(SpinSphereSpec(prod, vminus, labels)).to_dict()
        assert {k: obj[k] for k in expect} == expect


@pytest.mark.parametrize("labels", ["(1,psi", "1,psi)", "(1,psi)),((1,psi)", "sigma)("])
def test_sphere_unbalanced_labels_are_exit_2(capsys, labels):
    code, out, err = run(capsys, "sphere", "fermion", "--labels", labels)
    assert code == 2
    assert out == ""
    assert "unbalanced" in err


def test_sphere_unknown_label_is_exit_2(capsys):
    code, _, err = run(capsys, "sphere", "fermion", "--labels", "sigma,ghost")
    assert code == 2
    assert "ghost" in err


def _first_violation(capsys, path) -> str:
    """The first violation ``validate --format json`` reports for ``path``,
    in the text of validate's table format."""
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1
    first = json.loads(out)["violations"][0]
    return f"{first['check']} at {tuple(first['witness'])}: {first['detail']}"


def _fermion_with_unknown_label(capsys, tmp_path) -> Path:
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    doc["fusion"].append(["sigma", "psi", "zzz", 1])
    path = tmp_path / "zzz.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv",
    [("smatrix",), ("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["smatrix", "classify", "torus", "sphere"],
)
def test_fusion_rule_with_unknown_label_is_exit_2(capsys, tmp_path, argv):
    path = _fermion_with_unknown_label(capsys, tmp_path)
    first = _first_violation(capsys, path)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: 'fermion' fails validate: {first}\n" and "Traceback" not in err


def test_validate_reports_fusion_rule_with_unknown_label(capsys, tmp_path):
    path = _fermion_with_unknown_label(capsys, tmp_path)
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "check": "fusion",
        "witness": ["sigma", "psi", "zzz"],
        "detail": "fusion key mentions unknown labels",
    }]


def _fermion_without(capsys, tmp_path, name) -> Path:
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    del doc[name]["sigma"]
    path = tmp_path / f"no_{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", ["twist", "qdim", "dual"])
@pytest.mark.parametrize(
    "argv",
    [("smatrix",), ("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["smatrix", "classify", "torus", "sphere"],
)
def test_map_missing_a_label_is_exit_2(capsys, tmp_path, argv, name):
    path = _fermion_without(capsys, tmp_path, name)
    first = _first_violation(capsys, path)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: 'fermion' fails validate: {first}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["twist", "qdim", "dual"])
def test_validate_reports_map_missing_a_label(capsys, tmp_path, name):
    path = _fermion_without(capsys, tmp_path, name)
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "check": name,
        "witness": ["sigma"],
        "detail": f"{name} missing for these labels",
    }]


def _fermion_edited(capsys, tmp_path, edit) -> Path:
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


# each rejected by validate; the other commands must not compute on it
STRUCTURE_BREAKS = {
    "duplicate-label": lambda doc: doc["labels"].append("sigma"),
    "unit-not-a-label": lambda doc: doc.update(unit="zzz"),
    "dual-not-a-label": lambda doc: doc["dual"].update(sigma="zzz"),
    "whitespace-label": lambda doc: doc["labels"].append("x y"),
    "empty-label": lambda doc: doc["labels"].append(""),
    "extra-dual-entry": lambda doc: doc["dual"].update(zzz="zzz"),
    "extra-twist-entry": lambda doc: doc["twist"].update(zzz="0"),
    "extra-qdim-entry": lambda doc: doc["qdim"].update(zzz="1"),
}


@pytest.mark.parametrize("case", list(STRUCTURE_BREAKS))
@pytest.mark.parametrize(
    "argv",
    [("smatrix",), ("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["smatrix", "classify", "torus", "sphere"],
)
def test_structure_that_validate_rejects_is_exit_2(capsys, tmp_path, argv, case):
    path = _fermion_edited(capsys, tmp_path, STRUCTURE_BREAKS[case])
    first = _first_violation(capsys, path)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: 'fermion' fails validate: {first}\n"


@pytest.mark.parametrize("case", list(STRUCTURE_BREAKS))
def test_validate_reports_structure_breaks(capsys, tmp_path, case):
    path = _fermion_edited(capsys, tmp_path, STRUCTURE_BREAKS[case])
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and "INVALID" in out and err == ""


# JSON booleans where the format needs an integer or a rational: bool is an
# int subclass in Python, so each used to pass as 1 or 0
BOOLEAN_FIELDS = {
    "multiplicity": (lambda doc: doc["fusion"][0].__setitem__(3, True),
                     "malformed fusion entry: ['1', '1', '1', True]"),
    "multiplicity-false": (lambda doc: doc["fusion"][0].__setitem__(3, False),
                           "malformed fusion entry: ['1', '1', '1', False]"),
    "sigma_vv": (lambda doc: doc.update(sigma_vv=True), "sigma_vv must be 1 or -1, got True"),
    # not booleans, but floats that compare equal to the signs
    "sigma_vv-float-minus": (lambda doc: doc.update(sigma_vv=-1.0), "sigma_vv must be 1 or -1, got -1.0"),
    "sigma_vv-float-plus": (lambda doc: doc.update(sigma_vv=1.0), "sigma_vv must be 1 or -1, got 1.0"),
    "twist": (lambda doc: doc["twist"].update(psi=True), "malformed rational: True"),
    "qdim": (lambda doc: doc["qdim"].update(psi=True), "malformed qdim for 'psi': True"),
    "qdim-conductor": (lambda doc: doc["qdim"]["psi"].update(conductor=True),
                       "malformed cyclotomic value: {'conductor': True, 'terms': [[0, '1/1']]}"),
    "qdim-exponent": (lambda doc: doc["qdim"]["psi"]["terms"][0].__setitem__(0, False),
                      "malformed cyclotomic term: [False, '1/1']"),
}


@pytest.mark.parametrize("case", list(BOOLEAN_FIELDS))
def test_json_booleans_are_exit_2(capsys, tmp_path, case):
    edit, message = BOOLEAN_FIELDS[case]
    path = _fermion_edited(capsys, tmp_path, edit)
    for command in ("validate", "smatrix", "torus"):
        assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n"), command


def _exit_2_at_once(capsys, argv, value):
    # an exponent of a few characters would be a rational millions of bits long
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: malformed rational: {value!r}\n")
    assert time.perf_counter() - start < 5


def test_exponent_rational_flag_is_exit_2_at_once(capsys):
    _exit_2_at_once(capsys, ["singvec", "--c", "1e-3000000", "--h", "0", "--degree", "1"], "1e-3000000")


def test_exponent_rational_twist_is_exit_2_at_once(capsys, tmp_path):
    path = _fermion_edited(capsys, tmp_path, lambda doc: doc["twist"].update(psi="1e-2000000"))
    _exit_2_at_once(capsys, ["validate", str(path)], "1e-2000000")


def test_classify_table_and_s_squared_never_read_the_smatrix_entries(capsys, tmp_path, monkeypatch):
    import spinmtc.exactnum as exactnum

    made = []
    compute, entries = exactnum.compute_smatrix, CycMatrix.entries

    def recorded(data):
        made.append(compute(data))
        return made[-1]

    def guarded(self):
        assert not any(self is s.data for s in made), "the s-matrix's entries were read"
        return entries.fget(self)

    monkeypatch.setattr(exactnum, "compute_smatrix", recorded)
    monkeypatch.setattr(CycMatrix, "entries", property(guarded))
    prod = deligne_product(builtin("fibonacci"), builtin("fermion"))
    path = tmp_path / "prod.json"
    path.write_text(dump_fusion(prod))
    code, out, err = run(capsys, "classify", str(path), "--format", "table")
    assert (code, err) == (0, "") and "all checks pass: True" in out
    holds, _ = exactnum.check_s_squared(exactnum.compute_smatrix(prod), prod)
    assert holds and len(made) == 2


def _swap_duals(doc):
    doc["dual"].update(psi="sigma", sigma="psi")


def _drop_sigma_sigma_psi(doc):
    doc["fusion"].remove(["sigma", "sigma", "psi", 1])


# well-formed, but failing validate's axioms: validate's violations, in order
AXIOM_BREAKS = {
    "duals-swapped": (_swap_duals, ["duality at ('psi', 'psi')"]),
    "no-sigma-sigma-psi": (_drop_sigma_sigma_psi, ["associativity at ('psi', 'sigma', 'sigma', '1')",
                                                   "dimension_equation at ('sigma', 'sigma')"]),
}


@pytest.mark.parametrize("case", list(AXIOM_BREAKS))
@pytest.mark.parametrize(
    "argv",
    [("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["classify", "torus", "sphere"],
)
def test_axioms_that_validate_rejects_are_exit_1(capsys, tmp_path, argv, case):
    edit, violations = AXIOM_BREAKS[case]
    path = _fermion_edited(capsys, tmp_path, edit)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert [line.split(":")[0].strip() for line in out.splitlines()[1:]] == violations
    first = _first_violation(capsys, path)
    assert first.startswith(violations[0] + ": ")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: 'fermion' fails validate: {first}\n"


@pytest.mark.parametrize("case", list(AXIOM_BREAKS))
def test_smatrix_answers_on_axioms_that_validate_rejects(capsys, tmp_path, case):
    # its s^2 verdict already fails on these files
    path = _fermion_edited(capsys, tmp_path, AXIOM_BREAKS[case][0])
    code, out, err = run(capsys, "smatrix", str(path), "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["squares_to_conjugation"] is False


def test_square_root_case_has_one_refusal(capsys, tmp_path):
    # validate accepts sigma_vv = +1; classify reports it, and the spin
    # surface commands refuse it with the label partition's one message
    path = _fermion_edited(capsys, tmp_path, lambda doc: doc.update(sigma_vv=1))
    assert run(capsys, "validate", str(path)) == (0, "fermion: valid (3 labels)\n", "")
    assert run(capsys, "classify", str(path))[0] == 0
    torus = run(capsys, "torus", str(path))
    sphere = run(capsys, "sphere", str(path), "--labels", "sigma,sigma")
    assert torus == sphere
    code, out, err = torus
    assert (code, out) == (1, "")
    assert err == ("error: 'fermion' declares self-braiding +1 at 'psi'; "
                   "the label partition applies only to the Clifford case\n")


def test_super_modular_svec_gets_an_answer(capsys, tmp_path):
    # sVec: psi x psi = 1 with psi a fermion.  Its s-matrix is degenerate, so
    # it is super-modular, not spin modular; the block checks presume a
    # spin-modular input and fail where the R sector is empty.
    path = tmp_path / "svec.json"
    path.write_text(json.dumps({
        "name": "svec", "labels": ["1", "psi"], "unit": "1", "dual": {"1": "1", "psi": "psi"},
        "fusion": [["1", "1", "1", 1], ["1", "psi", "psi", 1], ["psi", "1", "psi", 1],
                   ["psi", "psi", "1", 1]],
        "twist": {"1": "0", "psi": "1/2"}, "qdim": {"1": "1", "psi": "1"},
    }))
    assert run(capsys, "validate", str(path)) == (0, "svec: valid (2 labels)\n", "")
    code, out, err = run(capsys, "smatrix", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["squares_to_conjugation"] is False
    code, out, err = run(capsys, "classify", str(path), "--format", "json")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert {k: v["witness"] for k, v in checks.items() if not v["ok"]} == {
        "bd_rank": ["rank", 0, "expected", 1],
        "count_identity": [0, 1],
    }
    code, out, err = run(capsys, "torus", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["dims"] == {"AA": 1, "AP": 0, "PA": 0, "PP": 0}


def test_minimal_bound_is_exit_2_before_enumerating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr("spinmtc.minimal.enumerate_labels", refuse)
    monkeypatch.setattr("spinmtc.minimal.model_to_dict", refuse)
    monkeypatch.setattr("spinmtc.minimal.valid_pairs", refuse)
    monkeypatch.setattr("spinmtc.minimal.count_pairs", refuse)
    p, q = 11, 9091  # p*q = MAX_PQ + 1
    code, out, err = run(capsys, "minimal", "--p", str(p), "--q", str(q))
    assert (code, out) == (2, "")
    assert err == f"error: p*q = {p * q} exceeds the limit {MAX_PQ}\n"
    code, out, err = run(capsys, "minimal-scan", "--max-pq", str(MAX_PQ + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --max-pq {MAX_PQ + 1} exceeds the limit {MAX_PQ}\n"
    monkeypatch.setattr("spinmtc.minimal.valid_pairs", lambda max_pq: iter([]))
    assert run(capsys, "minimal-scan", "--max-pq", str(MAX_PQ))[0] == 0


def test_validate_multiplicity_beyond_int64_is_reported(capsys, tmp_path):
    # x x = 1 + y, x y = x + 2^63 y, y y = 1 + 2^63 x: not associative, and
    # 2^63 does not fit a 64-bit integer.
    big = 2**63
    fusion = [["1", a, a, 1] for a in ("1", "x", "y")] + [[a, "1", a, 1] for a in ("x", "y")]
    for a, b, k, v in (("x", "x", "1", 1), ("x", "x", "y", 1), ("x", "y", "x", 1),
                       ("x", "y", "y", big), ("y", "y", "1", 1), ("y", "y", "x", big)):
        fusion.append([a, b, k, v])
        if a != b:
            fusion.append([b, a, k, v])
    path = tmp_path / "xy.json"
    path.write_text(json.dumps({
        "name": "xy", "labels": ["1", "x", "y"], "unit": "1",
        "dual": {"1": "1", "x": "x", "y": "y"}, "fusion": fusion,
        "twist": {"1": "0", "x": "0", "y": "0"}, "qdim": {"1": "1", "x": "1", "y": "1"},
    }))
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"][0] == {
        "check": "associativity",
        "witness": ["x", "x", "y", "y"],
        "detail": "sum over (i x j) x k differs from i x (j x k)",
    }
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and err == "" and "associativity at ('x', 'x', 'y', 'y')" in out


def test_cli_import_does_not_load_numpy():
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    probe = "import sys, spinmtc.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "False"


# Runs ``spinmtc.cli`` as ``python -m`` does, and writes to stderr, after the
# command's own output, the package modules whose bodies executed and which of
# numpy, dataclasses and inspect were loaded.
_MODULE_PROBE = """import json, runpy, sys
ran = set()
def trace(frame, event, arg):
    spec = frame.f_globals.get("__spec__")
    if (frame.f_code.co_name == "<module>" and spec is not None
            and spec.name.split(".")[0] == "spinmtc" and frame.f_code.co_filename == spec.origin):
        ran.add(spec.name)
sys.settrace(trace)
try:
    runpy.run_module("spinmtc.cli", run_name="__main__", alter_sys=True)
finally:
    sys.settrace(None)
    heavy = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
    print(json.dumps([sorted(ran), heavy]), file=sys.stderr)
"""

# Every command runs the package and cli, and then the module that holds its
# handler.  The category commands' handlers, in category_cli (and smatrix_cli
# for smatrix and classify, which runs category_cli too), run fusion and the
# cyclotomic field; catalog runs only where a builtin is built, the file
# format fusionfile only where a file is read or written, the s-matrix layer
# exactnum only where an s-matrix is computed (smatrix and classify), and
# the axiom check axioms only for validate and where classify, sphere or
# torus read a file: a builtin key is trusted.  The sparse elimination
# kernel runs with axioms or exactnum.  The model commands' handlers, in
# model_cli, run minimal, and singvec runs verma and the kernel too.  An
# error exit runs only the modules its command reached: "{bad}" is a
# category file that fails validate's axioms, "{ambiguous}" one with two
# admissible odd generators, "{missing}" a path that does not exist, and
# "{good}" the fermion file.
_ALWAYS = {"spinmtc", "spinmtc.cli"}
_CATEGORY = {"spinmtc.category_cli", "spinmtc.fusion", "spinmtc.cyclotomic"}
_BUILTIN = _CATEGORY | {"spinmtc.catalog"}
_FILE = _CATEGORY | {"spinmtc.fusionfile"}
_AXIOMS = {"spinmtc.axioms", "spinmtc.sparse"}
_SMATRIX = {"spinmtc.smatrix_cli", "spinmtc.exactnum", "spinmtc.sparse"}
_SURFACE = {"spinmtc.clifford", "spinmtc.spinfunctor"}
_MODEL = {"spinmtc.model_cli", "spinmtc.minimal"}
_COMMANDS = [
    (["--help"], set(), 0),
    (["singvec", "--p", "2", "--q", "8"], _MODEL | {"spinmtc.verma", "spinmtc.sparse"}, 0),
    (["minimal", "--p", "2", "--q", "8"], _MODEL, 0),
    (["minimal-scan", "--max-pq", "20"], _MODEL, 0),
    (["validate", "fermion"], _BUILTIN | _AXIOMS, 0),
    (["smatrix", "fermion"], _BUILTIN | _SMATRIX, 0),
    (["builtin", "fermion"], _BUILTIN | {"spinmtc.fusionfile"}, 0),
    (["classify", "fermion"], _BUILTIN | _SMATRIX | {"spinmtc.clifford"}, 0),
    (["sphere", "fermion", "--labels", "sigma,sigma"], _BUILTIN | _SURFACE, 0),
    (["torus", "fermion"], _BUILTIN | _SURFACE, 0),
]
_FILE_COMMANDS = {
    "validate-file": (["validate", "{good}"], _FILE | _AXIOMS, 0),
    "smatrix-file": (["smatrix", "{good}"], _FILE | _SMATRIX, 0),
    "classify-file": (["classify", "{good}"], _FILE | _AXIOMS | _SMATRIX | {"spinmtc.clifford"}, 0),
    "sphere-file": (["sphere", "{good}", "--labels", "sigma,sigma"], _FILE | _AXIOMS | _SURFACE, 0),
    "torus-file": (["torus", "{good}"], _FILE | _AXIOMS | _SURFACE, 0),
}
_ERROR_EXITS = {
    "torus-inconsistent": (["torus", "{bad}"], _FILE | _AXIOMS, 1),
    "classify-ambiguous": (["classify", "{ambiguous}"],
                           _FILE | _AXIOMS | {"spinmtc.smatrix_cli", "spinmtc.clifford"}, 1),
    "torus-not-fermionic": (["torus", "fibonacci"], _BUILTIN | {"spinmtc.clifford"}, 1),
    "classify-vminus": (["classify", "fermion", "--vminus", "sigma"],
                        _BUILTIN | {"spinmtc.smatrix_cli", "spinmtc.clifford"}, 2),
    "sphere-unbalanced": (["sphere", "fermion", "--labels", "(sigma"], {"spinmtc.category_cli"}, 2),
    "minimal-scan-small": (["minimal-scan", "--max-pq", "3"], {"spinmtc.model_cli"}, 2),
    "minimal-not-a-model": (["minimal", "--p", "2", "--q", "2"], _MODEL, 2),
    "classify-missing": (["classify", "{missing}"], _CATEGORY | {"spinmtc.smatrix_cli"}, 2),
    "singvec-malformed": (["singvec", "--c", "1/0", "--h", "0", "--degree", "2"], {"spinmtc.model_cli"}, 2),
    "singvec-over-cap": (["singvec", "--c", "1", "--h", "0", "--degree", "40"], {"spinmtc.model_cli"}, 2),
}


@pytest.mark.parametrize("argv, modules, code", [pytest.param(*case, id=case[0][0]) for case in _COMMANDS]
                         + [pytest.param(*case, id=name) for name, case in _FILE_COMMANDS.items()]
                         + [pytest.param(*case, id=name) for name, case in _ERROR_EXITS.items()])
def test_each_command_executes_only_its_modules(capsys, tmp_path, argv, modules, code):
    bad = _fermion_edited(capsys, tmp_path, _drop_sigma_sigma_psi)
    ambiguous = tmp_path / "fermion2.json"
    ambiguous.write_text(dump_fusion(deligne_product(builtin("fermion"), builtin("fermion"))))
    good = tmp_path / "fermion.json"
    good.write_text(dump_fusion(builtin("fermion")))
    argv = [a.format(bad=bad, ambiguous=ambiguous, missing=tmp_path / "missing.json", good=good) for a in argv]
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == code, done.stderr
    ran, heavy = json.loads(done.stderr.splitlines()[-1])
    assert set(ran) == _ALWAYS | modules
    assert heavy == []


# Runs ``spinmtc.cli`` as ``python -m`` does, with no bytecode cache to read
# (the first argument is an empty directory) or write, and writes to stderr,
# after the command's own output, how often each source file was compiled.
_COMPILE_PROBE = """import builtins, collections, json, runpy, sys
sys.dont_write_bytecode = True
sys.pycache_prefix = sys.argv.pop(1)
compiled = collections.Counter()
real = builtins.compile
def counting(source, filename, *args, **kwargs):
    compiled[str(filename)] += 1
    return real(source, filename, *args, **kwargs)
builtins.compile = counting
try:
    runpy.run_module("spinmtc.cli", run_name="__main__", alter_sys=True)
finally:
    builtins.compile = real
    print(json.dumps(compiled), file=sys.stderr)
"""


# every command of _COMMANDS and _FILE_COMMANDS compiles exactly the files of
# the modules it executes: on a file, fusionfile in place of catalog, and the
# axiom check except for smatrix
@pytest.mark.parametrize("argv, modules", [pytest.param(argv, modules, id=argv[0]) for argv, modules, _ in _COMMANDS]
                         + [pytest.param(argv, modules, id=name) for name, (argv, modules, _) in _FILE_COMMANDS.items()])
def test_no_source_file_is_compiled_twice(tmp_path, argv, modules):
    # a module that imported spinmtc.cli would compile cli.py a second time,
    # beside the __main__ that python -m runs
    path = tmp_path / "fermion.json"
    path.write_text(dump_fusion(builtin("fermion")))
    argv = [a.format(good=path) for a in argv]
    package = Path(spinmtc.__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", _COMPILE_PROBE, str(tmp_path / "cache"), *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package.parent)})
    assert done.returncode == 0, done.stderr
    # source files only: "<string>" is code that namedtuple builds
    compiled = {k: n for k, n in json.loads(done.stderr.splitlines()[-1]).items() if not k.startswith("<")}
    assert compiled and max(compiled.values()) == 1, compiled
    ours = {Path(name).stem for name in compiled if Path(name).resolve().parent == package}
    assert ours == {"__init__", "cli"} | {name.removeprefix("spinmtc.") for name in modules}


def _dead_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports but never reads as a name
    and does not list in ``__all__``; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = next((ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)), [])
    return sorted((line, name) for name, line in imported.items() if name not in used | set(exported))


def test_no_source_file_imports_a_name_it_never_uses():
    assert _dead_imports("import os, json as j\nfrom .a import b, c\n__all__ = ['c']\nprint(j)\n") == [
        (1, "os"), (2, "b")]
    package = Path(spinmtc.__file__).resolve().parent
    dead = {path.name: _dead_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in dead.items() if found} == {}


# --- streamed sphere output --------------------------------------------------------


def _sphere_json_oracle(data, vminus, labels) -> str:
    rep = sphere_report(SpinSphereSpec(data, vminus, labels))
    obj = {"category": data.name, "vminus": vminus, "boundary_labels": list(labels),
           **rep.to_dict()}
    return json.dumps(obj, indent=2) + "\n"


def _sphere_table_oracle(data, labels) -> str:
    (vminus,) = find_vminus(data)
    rep = sphere_report(SpinSphereSpec(data, vminus, labels))
    lines = [
        f"{data.name}: sphere with punctures {list(labels)}",
        f"  total dimension      {rep.total_dim}",
        f"  component dimension  {rep.component_dim}",
        f"  odd punctures        {rep.lambda_rank} "
        f"(clifford algebra on {rep.lambda_rank} generators, "
        f"parity {rep.lambda_rank % 2})",
        "  epsilon table:",
    ]
    for key, val in sorted(rep.epsilon_table.items()):
        lines.append(f"    {''.join(str(b) for b in key)}  {val}")
    return "\n".join(lines) + "\n"


def _builtin_chains(max_len):
    for key in ("fermion", "dirac", "toric"):
        data = builtin(key)
        for n in range(1, max_len + 1):
            for chain in itertools.product(data.labels, repeat=n):
                yield key, data, chain


def test_streamed_sphere_json_equals_whole_dump(capsys):
    for key, data, chain in _builtin_chains(4):
        (vminus,) = find_vminus(data)
        code, out, _ = run(capsys, "sphere", key, "--labels", ",".join(chain), "--format", "json")
        assert code == 0
        assert out == _sphere_json_oracle(data, vminus, chain), (key, chain)


def test_streamed_sphere_json_on_product_labels(capsys, tmp_path):
    prod = deligne_product(builtin("dirac"), builtin("fermion"))
    path = tmp_path / "prod.json"
    path.write_text(dump_fusion(prod))
    for vminus in find_vminus(prod):
        for chain in itertools.product(prod.labels[:4], repeat=2):
            argv = ["sphere", str(path), "--vminus", vminus, "--labels", ",".join(chain)]
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            assert out == _sphere_json_oracle(prod, vminus, chain), (vminus, chain)


@pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "two-blocks"])
def test_streamed_sphere_at_the_block_size(capsys, extra):
    # 2^n rows fill exactly one write block, then spill into a second one
    n = ROWS_PER_WRITE.bit_length() - 1 + extra
    assert 2 ** n == ROWS_PER_WRITE * (1 + extra)
    data, chain = builtin("fermion"), ("sigma", "psi") * (n // 2) + ("1",) * (n % 2)
    for fmt, want in (("json", _sphere_json_oracle(data, "psi", chain)),
                      ("table", _sphere_table_oracle(data, chain))):
        code, out, _ = run(capsys, "sphere", "fermion", "--labels", ",".join(chain), "--format", fmt)
        assert code == 0
        assert out == want, fmt


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_sphere_rows_in_blocks_equal_rows_one_at_a_time(capsys, fmt):
    # Up to 10 punctures the rows are one block of the writer, above that
    # several.  A chain of 1 and psi has even != odd, so a block taken at the
    # wrong parity shows.  The reference formats one row at a time.
    data = builtin("fermion")
    for n in range(1, 14):
        chain = (("1", "psi", "psi", "1", "psi") * 3)[:n]
        table = sphere_report(SpinSphereSpec(data, "psi", chain)).epsilon_table
        assert table.even != table.odd
        if fmt == "json":
            oracle, key = _sphere_json_oracle(data, "psi", chain), '  "epsilon_table": {\n'
            rows = ",\n".join(f'    "{bits}": {val}' for bits, val in table.rows()) + "\n  }\n}\n"
        else:
            oracle, key = _sphere_table_oracle(data, chain), "  epsilon table:\n"
            rows = "\n".join(f"    {bits}  {val}" for bits, val in table.rows()) + "\n"
        code, out, _ = run(capsys, "sphere", "fermion", "--labels", ",".join(chain), "--format", fmt)
        assert code == 0
        assert out == oracle[:oracle.index(key)] + key + rows, n


def test_streamed_sphere_table_keeps_its_line_format(capsys):
    for key, data, chain in _builtin_chains(3):
        code, out, _ = run(capsys, "sphere", key, "--labels", ",".join(chain))
        assert code == 0
        assert out == _sphere_table_oracle(data, chain), (key, chain)


# --- matrix JSON writer --------------------------------------------------------------


def _plain(value):
    """``value`` with each ``CycMatrix`` replaced by its rows of entry dicts."""
    if isinstance(value, CycMatrix):
        return [[x.to_dict() for x in row] for row in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@st.composite
def _matrices(draw):
    # entries drawn from a small pool, so that equal entries repeat
    values = st.builds(Cyclotomic, st.sampled_from((1, 5, 8, 16)),
                       st.dictionaries(st.integers(0, 15), st.fractions(-3, 3, max_denominator=4), max_size=3))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return cyc_matrix([[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)], (rows, cols))


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
_JSON_PLAIN = st.recursive(_JSON_SCALARS, lambda kids: st.lists(kids, max_size=3)
                           | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=10)
# the writer walks dicts to reach the matrices, which are dict values
_JSON_WALKED = st.recursive(_JSON_PLAIN | _matrices(), lambda kids: st.dictionaries(
    st.text(max_size=3), kids, max_size=3), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_JSON_WALKED, _JSON_WALKED)
def test_json_parts_equal_json_dumps(tree, shared):
    # the same object sits at two depths
    obj = {"x": shared, "y": {"z": shared, "w": tree}, "": []}
    assert "".join(_json_parts(obj)) == json.dumps(_plain(obj), indent=2)
    assert "".join(_json_parts(tree)) == json.dumps(_plain(tree), indent=2)


def _builtins_and_pairs():
    for key in BUILTIN_KEYS:
        yield key, builtin(key)
    for a, b in itertools.combinations_with_replacement(BUILTIN_KEYS, 2):
        yield f"{a}.{b}", deligne_product(builtin(a), builtin(b))


def test_matrix_json_equals_json_dumps(capsys, tmp_path):
    # Every output equals json.dumps of the same document with the matrices
    # as the library's entry dicts; fermion's blocks B and C are empty.
    classified = set()
    for name, data in _builtins_and_pairs():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_fusion(data))
        s = compute_smatrix(data)
        for numeric in ((), ("--numeric", "3")):
            _, out, err = run(capsys, "smatrix", str(path), "--format", "json", *numeric)
            doc = json.loads(out)
            assert err == ""
            assert out == json.dumps({**doc, "entries": _plain(s.data)}, indent=2) + "\n"
        for vminus in find_vminus(data):
            _, out, err = run(capsys, "classify", str(path), "--vminus", vminus, "--format", "json")
            doc = json.loads(out)
            assert err == ""
            if doc.get("structure") != "clifford":
                continue
            report = verify_block_structure(data, classify_labels(data, vminus), s)
            assert out == json.dumps({**doc, **_plain(report.to_dict())}, indent=2) + "\n", (name, vminus)
            classified.add(name)
            if name == "fermion":
                assert doc["blocks"]["B"] == {"rows": 1, "cols": 0, "entries": [[]]}
                assert doc["blocks"]["C"] == {"rows": 0, "cols": 0, "entries": []}
    assert {"fermion", "dirac", "toric", "fermion.fermion", "dirac.fibonacci"} <= classified


# A child's ru_maxrss counts its parent's resident set at the fork, so the
# child is started from a small launcher rather than from the test process.
_LAUNCHER = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_sphere_at_the_puncture_cap_runs_in_bounded_memory(fmt):
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    labels = ("sigma",) * MAX_PUNCTURES
    argv = [sys.executable, "-m", "spinmtc.cli", "sphere", "fermion", "--labels", ",".join(labels), "--format", fmt]
    launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    # the rows of the epsilon table, in either form, are the lines led by 20 bits
    rows, head, prev = 0, None, None
    for line in launcher.stdout:
        lead = line.split(maxsplit=1)[0].strip(b'":') if line.strip() else b""
        if len(lead) == MAX_PUNCTURES and set(lead) <= set(b"01"):
            rows, head, last = rows + 1, head or [prev, line], line
        prev = line
    code, maxrss_kb = map(int, launcher.stderr.read().split())
    launcher.stdout.close()
    launcher.stderr.close()
    assert launcher.wait(timeout=60) == 0 and code == 0
    table = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", labels)).epsilon_table
    first_bits, last_bits, last_val = "0" * MAX_PUNCTURES, "1" * MAX_PUNCTURES, table[(1,) * MAX_PUNCTURES]
    if fmt == "json":
        want = ['  "epsilon_table": {\n', f'    "{first_bits}": {table.even},\n', f'    "{last_bits}": {last_val}\n']
    else:
        want = ["  epsilon table:\n", f"    {first_bits}  {table.even}\n", f"    {last_bits}  {last_val}\n"]
    assert rows == 2**MAX_PUNCTURES
    assert [*head, last] == [w.encode() for w in want]
    assert maxrss_kb < 100 * 1024, maxrss_kb  # KiB on Linux


# --- conductor cap -------------------------------------------------------------------


def _fermion_with_sigma_twist(capsys, tmp_path, conductor) -> Path:
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    doc["twist"]["sigma"] = f"1/{conductor}"
    path = tmp_path / f"fermion_{conductor}.json"
    path.write_text(json.dumps(doc))
    return path


def test_smatrix_at_the_conductor_cap_runs_in_bounded_memory(capsys, tmp_path):
    # Reduction mod Phi_N may keep only O(phi(N)) ints per conductor: a table
    # of x^j mod Phi_N for every j < N holds about N^2/4 ints, near 290 MB here.
    path = _fermion_with_sigma_twist(capsys, tmp_path, 9808)
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "spinmtc.cli", "smatrix", str(path), "--format", "json"]
    done = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    code, maxrss_kb = map(int, done.stderr.split())
    assert done.returncode == 0 and code == 0
    report = json.loads(done.stdout)
    assert report["conductor"] == 9808 and report["squares_to_conjugation"] is True
    assert maxrss_kb < 100 * 1024, maxrss_kb  # KiB on Linux


@pytest.mark.slow
@pytest.mark.parametrize("conductor", [9240, 9520, 9808])
def test_smatrix_at_the_conductor_cap(capsys, tmp_path, conductor):
    path = _fermion_with_sigma_twist(capsys, tmp_path, conductor)
    code, out, err = run(capsys, "smatrix", str(path), "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["conductor"] == conductor and report["squares_to_conjugation"] is True


def _fermion_at_conductor(capsys, tmp_path, where) -> Path:
    _, dump, _ = run(capsys, "builtin", "fermion")
    doc = json.loads(dump)
    if where == "qdim":
        doc["qdim"]["sigma"] = {"conductor": 10**11, "terms": [[0, "1"]]}
    else:
        doc["twist"]["sigma"] = "1/30030"
    path = tmp_path / f"huge_{where}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("where, conductor", [("qdim", 10**11), ("twist", 120120)])
@pytest.mark.parametrize(
    "argv",
    [("validate",), ("smatrix",), ("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["validate", "smatrix", "classify", "torus", "sphere"],
)
def test_conductor_beyond_the_cap_is_exit_2(capsys, tmp_path, argv, where, conductor):
    path = _fermion_at_conductor(capsys, tmp_path, where)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert f"conductor {conductor} of 'fermion' exceeds the limit {MAX_CONDUCTOR}" in err


# --- process entry -------------------------------------------------------------------

# Runs ``spinmtc.cli`` as ``python -m`` does, from a wrapper whose atexit hook
# writes to stderr, after everything else, whether the collector was frozen.
_EXIT_PROBE = """import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("spinmtc.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", [
    (["torus", "fermion"], 0),
    (["classify", "{ambiguous}"], 1),
    (["minimal-scan", "--max-pq", "3"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_process_entry_exits_as_main_returns_with_the_collector_frozen(capsys, tmp_path, argv, code):
    ambiguous = tmp_path / "fermion2.json"
    ambiguous.write_text(dump_fusion(deligne_product(builtin("fermion"), builtin("fermion"))))
    argv = [a.format(ambiguous=ambiguous) for a in argv]
    frozen = gc.get_freeze_count()
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert gc.get_freeze_count() == frozen  # main in-process leaves the collector alone
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    *err, hook = done.stderr.splitlines(keepends=True)
    # the hook ran, so the exit was a normal one, after the freeze
    assert hook == "True\n"
    assert (done.returncode, done.stdout, "".join(err)) == expected


@pytest.mark.parametrize("argv", [
    ["minimal-scan", "--max-pq", str(MAX_PQ)],
    ["sphere", "fermion", "--labels", ",".join(["sigma"] * 16)],
], ids=["minimal-scan", "sphere"])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # each output is far larger than a pipe's buffer
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "spinmtc.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (1, b"")


# --- mutated category files ----------------------------------------------------------


def _slots(node):
    """Every (container, key or index) pair in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _names(doc):
    labels = doc.get("labels")
    return sorted({n for n in labels if isinstance(n, str)}) if isinstance(labels, list) else []


def _retype(draw, doc):
    """Replace a value by one of any type, or by one of its own kind: a count, a label or a fraction."""
    node, key = draw(st.sampled_from(list(_slots(doc))))
    kind = {int: st.integers(-1, 3), str: st.sampled_from(_names(doc) or ["1"])
            | st.fractions(-1, 1, max_denominator=24).map(str)}.get(type(node[key]))
    node[key] = draw(_JSON_PLAIN if kind is None else kind | _JSON_PLAIN)


def _drop(draw, doc):
    node, key = draw(st.sampled_from(list(_slots(doc))))
    del node[key]


def _add(draw, doc):
    node = draw(st.sampled_from([doc, *(n[k] for n, k in _slots(doc) if isinstance(n[k], (dict, list)))]))
    siblings = list(node.values() if isinstance(node, dict) else node)
    # a copy of a sibling repeats a fusion rule, a label or a qdim term
    value = draw(st.sampled_from(siblings).map(copy.deepcopy) | _JSON_PLAIN if siblings else _JSON_PLAIN)
    if isinstance(node, dict):
        keys = st.text(max_size=6)
        node[draw(st.sampled_from(sorted(node)) | keys if node else keys)] = value
    else:
        node.insert(draw(st.integers(0, len(node))), value)


# terms of a cyclotomic value: [exponent, rational string] pairs, or junk
_TERMS = st.lists(st.tuples(st.integers(-4, 60), st.fractions(-2, 2, max_denominator=4).map(str)).map(list)
                  | st.lists(_JSON_SCALARS, max_size=3), max_size=4)


def _corrupt_qdim(draw, doc):
    qdim = doc.get("qdim")
    if isinstance(qdim, dict) and qdim:
        label = draw(st.sampled_from(sorted(qdim)))
        qdim[label] = draw(st.fixed_dictionaries(
            {"conductor": st.integers(-2, 48) | _JSON_SCALARS, "terms": _TERMS | _JSON_SCALARS}))


def _renamed(node, old, new):
    if isinstance(node, dict):
        return {new if k == old else k: _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


def _rename_label(draw, doc):
    names = _names(doc)
    if not names:
        return
    old = draw(st.sampled_from(names))
    new = draw(st.sampled_from(names) | st.text(max_size=4))
    if draw(st.booleans()):  # everywhere, or in one place only
        renamed = _renamed(doc, old, new)
        doc.clear()
        doc.update(renamed)
        return
    places = [(n, k) for n, k in _slots(doc) if k == old or n[k] == old]
    node, key = draw(st.sampled_from(places))
    if key == old and isinstance(node, dict):
        node[new] = node.pop(old)
    else:
        node[key] = new


_MUTATIONS = (_retype, _drop, _add, _corrupt_qdim, _rename_label)


@st.composite
def _mutated_builtin(draw):
    doc = json.loads(dump_fusion(builtin(draw(st.sampled_from(BUILTIN_KEYS)))))
    for _ in range(draw(st.integers(1, 2))):
        draw(st.sampled_from(_MUTATIONS))(draw, doc)
    return doc


# A mutant is malformed (exit 2), inconsistent (exit 1) or still a category
# (exit 0); whichever it is, no command lets an exception escape.
@settings(max_examples=200, deadline=None)
@given(_mutated_builtin())
def test_mutated_category_file_exits_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        labels = doc.get("labels")
        label = labels[-1] if isinstance(labels, list) and labels and isinstance(labels[-1], str) else "sigma"
        for argv in (["validate"], ["smatrix"], ["classify"], ["torus"], ["sphere", f"--labels={label},{label}"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], path, *argv[1:]])
            assert code in (0, 1, 2), (argv, code)
