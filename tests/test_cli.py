"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinmtc

from spinmtc.catalog import builtin
from spinmtc.cli import MAX_PQ, MAX_PUNCTURES, ROWS_PER_WRITE, main
from spinmtc.clifford import find_vminus
from spinmtc.fusion import MAX_CONDUCTOR, deligne_product, dump_fusion
from spinmtc.minimal import MinimalModelSpec, enumerate_labels
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


def test_real_file_wins_over_builtin_key(capsys, tmp_path, monkeypatch):
    # A file literally named "fermion" in cwd takes precedence.
    code, out, _ = run(capsys, "builtin", "dirac")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fermion").write_text(out)
    code, out, _ = run(capsys, "validate", "fermion", "--format", "json")
    assert code == 0
    assert json.loads(out)["category"] == "dirac"


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


def test_no_vminus_is_exit_1(capsys):
    code, _, err = run(capsys, "classify", "trivial")
    assert code == 1
    assert "no admissible odd generator" in err


def test_ambiguous_vminus_lists_candidates(capsys, tmp_path):
    # A product category with two odd generators requires --vminus.
    from spinmtc.catalog import builtin as make
    from spinmtc.fusion import MAX_CONDUCTOR, deligne_product, dump_fusion

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
    path = tmp_path / "skew.json"
    path.write_text(dump_fusion(skew))
    code, out, err = run(capsys, "sphere", str(path), "--labels", "a,b,v")
    assert code == 1
    assert out == ""
    assert "puncture 'a' and label 'a'" in err


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
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert "unknown label 'zzz'" in err and "Traceback" not in err


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
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert f"{name} of 'fermion' has no entry for label 'sigma'" in err
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
    "duplicate-label": (lambda doc: doc["labels"].append("sigma"),
                        "labels of 'fermion' repeat label 'sigma'"),
    "unit-not-a-label": (lambda doc: doc.update(unit="zzz"),
                         "unit 'zzz' of 'fermion' is not a label"),
    "dual-not-a-label": (lambda doc: doc["dual"].update(sigma="zzz"),
                         "dual of 'fermion' maps to unknown label 'zzz'"),
}


@pytest.mark.parametrize("case", list(STRUCTURE_BREAKS))
@pytest.mark.parametrize(
    "argv",
    [("smatrix",), ("classify",), ("torus",), ("sphere", "--labels", "sigma,sigma")],
    ids=["smatrix", "classify", "torus", "sphere"],
)
def test_structure_that_validate_rejects_is_exit_2(capsys, tmp_path, argv, case):
    edit, message = STRUCTURE_BREAKS[case]
    path = _fermion_edited(capsys, tmp_path, edit)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("case", list(STRUCTURE_BREAKS))
def test_validate_reports_structure_breaks(capsys, tmp_path, case):
    path = _fermion_edited(capsys, tmp_path, STRUCTURE_BREAKS[case][0])
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and "INVALID" in out and err == ""


def test_minimal_bound_is_exit_2_before_enumerating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr("spinmtc.cli.model_to_dict", refuse)
    monkeypatch.setattr("spinmtc.cli.valid_pairs", refuse)
    p, q = 11, 9091  # p*q = MAX_PQ + 1
    code, out, err = run(capsys, "minimal", "--p", str(p), "--q", str(q))
    assert (code, out) == (2, "")
    assert err == f"error: p*q = {p * q} exceeds the limit {MAX_PQ}\n"
    code, out, err = run(capsys, "minimal-scan", "--max-pq", str(MAX_PQ + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --max-pq {MAX_PQ + 1} exceeds the limit {MAX_PQ}\n"
    monkeypatch.setattr("spinmtc.cli.valid_pairs", lambda max_pq: iter([]))
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
        f"(clifford algebra on {rep.lambda_class.generators} generators, "
        f"parity {rep.lambda_class.parity})",
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


def test_streamed_sphere_table_keeps_its_line_format(capsys):
    for key, data, chain in _builtin_chains(3):
        code, out, _ = run(capsys, "sphere", key, "--labels", ",".join(chain))
        assert code == 0
        assert out == _sphere_table_oracle(data, chain), (key, chain)


# A child's ru_maxrss counts its parent's resident set at the fork, so the
# child is started from a small launcher rather than from the test process.
_LAUNCHER = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def test_sphere_at_the_puncture_cap_runs_in_bounded_memory():
    src = str(Path(spinmtc.__file__).resolve().parents[1])
    labels = ("sigma",) * MAX_PUNCTURES
    argv = [sys.executable, "-m", "spinmtc.cli", "sphere", "fermion", "--labels", ",".join(labels)]
    launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    head = [launcher.stdout.readline() for _ in range(6)]
    for last in launcher.stdout:
        pass
    code, maxrss_kb = map(int, launcher.stderr.read().split())
    launcher.stdout.close()
    launcher.stderr.close()
    assert launcher.wait(timeout=60) == 0 and code == 0
    table = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", labels)).epsilon_table
    assert head[4] == b"  epsilon table:\n"
    assert head[5] == f"    {'0' * MAX_PUNCTURES}  {table.even}\n".encode()
    assert last == f"    {'1' * MAX_PUNCTURES}  {table[(1,) * MAX_PUNCTURES]}\n".encode()
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
