"""Golden digests of the command line's output over a fixed corpus.

Each invocation runs ``spinmtc.cli.main`` in-process, in a working directory
that holds the product and edited category files under relative names, so
that no digest depends on the machine.  The test compares a sha256 of
(environment, argv, exit code, stdout, stderr) for every invocation with
``tests/data/cli_golden.json``.

After an intended output change, regenerate the digests by running this
module as a script from the repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.cli import main
from spinmtc.clifford import find_vminus
from spinmtc.fusion import FusionData, deligne_product, dump_fusion

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

_PRODUCTS = (("fermion", "fermion"), ("dirac", "fermion"), ("toric", "fermion"),
             ("fibonacci", "fermion"), ("dirac", "dirac"))
_FORMATS = (("--format", "table"), ("--format", "json"))


# edited fermion files: one that fails validate's axioms, two with a float sigma_vv
_EDITED = {
    "no-sigma-sigma-psi.json": lambda doc: doc["fusion"].remove(["sigma", "sigma", "psi", 1]),
    "sigma-vv-float-minus.json": lambda doc: doc.update(sigma_vv=-1.0),
    "sigma-vv-float-plus.json": lambda doc: doc.update(sigma_vv=1.0),
}


def _write_files(workdir: Path) -> dict[str, FusionData]:
    """The product and edited files, written into ``workdir``; returns every
    category argument of the corpus with its data."""
    cats = {key: builtin(key) for key in BUILTIN_KEYS}
    for a, b in _PRODUCTS:
        name = f"{a}.{b}.json"
        cats[name] = deligne_product(builtin(a), builtin(b))
        (workdir / name).write_text(dump_fusion(cats[name]))
    for name, edit in _EDITED.items():
        doc = json.loads(dump_fusion(builtin("fermion")))
        edit(doc)
        (workdir / name).write_text(json.dumps(doc))
    return cats


def _category_cases(cats: dict[str, FusionData]) -> Iterator[tuple[str, ...]]:
    for cat, data in cats.items():
        labels = ",".join(data.labels[-2:] * 2)
        choices = [()] + [("--vminus", v) for v in find_vminus(data)]
        for fmt in _FORMATS:
            yield ("validate", cat, *fmt)
            yield ("smatrix", cat, *fmt)
            yield ("smatrix", cat, "--numeric", "6", *fmt)
            for vminus in choices:
                yield ("classify", cat, *vminus, *fmt)
                yield ("torus", cat, *vminus, *fmt)
                yield ("sphere", cat, "--labels", labels, *vminus, *fmt)


def _other_cases() -> Iterator[tuple[str, ...]]:
    for key in BUILTIN_KEYS:
        yield ("builtin", key)
    yield ("builtin", "fermion", "--format", "json")
    for fmt in _FORMATS:
        for p, q in ((2, 8), (3, 5), (3, 7)):
            yield ("minimal", "--p", str(p), "--q", str(q), *fmt)
        yield ("minimal", "--p", "3", "--q", "7", "--numeric", "6", *fmt)
        yield ("minimal-scan", "--max-pq", "60", *fmt)
        yield ("singvec", "--p", "2", "--q", "8", *fmt)
        yield ("singvec", "--p", "3", "--q", "5", "--numeric", "6", *fmt)
        yield ("singvec", "--c", "1", "--h", "0", "--degree", "2", *fmt)
        yield ("singvec", "--c", "7/10", "--h", "1/10", "--degree", "3/2", "--numeric", "6", *fmt)


def _error_cases() -> Iterator[tuple[str, ...]]:
    for fmt in _FORMATS:
        for command in ("validate", "smatrix", "classify", "torus"):
            for name in _EDITED:
                yield (command, name, *fmt)
        yield ("sphere", "no-sigma-sigma-psi.json", "--labels", "sigma,sigma", *fmt)
        yield ("classify", "missing.json", *fmt)
        yield ("classify", "fermion", "--vminus", "sigma", *fmt)
        yield ("torus", "fermion", "--vminus", "nosuch", *fmt)
        yield ("sphere", "fermion", "--labels", "(sigma", *fmt)
        yield ("sphere", "fermion", "--labels", "sigma)", *fmt)
        yield ("sphere", "fermion", "--labels", ",".join(["sigma"] * 21), *fmt)
        yield ("sphere", "fermion", "--labels", "sigma,nosuch", *fmt)
        yield ("minimal", "--p", "2", "--q", "2", *fmt)
        yield ("minimal", "--p", "3", "--q", "40001", *fmt)
        yield ("minimal-scan", "--max-pq", "3", *fmt)
        yield ("minimal-scan", "--max-pq", "100001", *fmt)
        yield ("singvec", *fmt)
        yield ("singvec", "--p", "3", *fmt)
        yield ("singvec", "--c", "1", *fmt)
        yield ("singvec", "--p", "3", "--q", "5", "--c", "1", *fmt)
        yield ("singvec", "--p", "2", "--q", "2", *fmt)
        yield ("singvec", "--c", "1/0", "--h", "0", "--degree", "2", *fmt)
        yield ("singvec", "--c", "1", "--h", "x", "--degree", "2", *fmt)
        yield ("singvec", "--c", "1", "--h", "0", "--degree", "0", *fmt)
        yield ("singvec", "--c", "1", "--h", "0", "--degree", "1/3", *fmt)
        yield ("singvec", "--c", "1", "--h", "0", "--degree", "40", *fmt)
    # usage errors, among them the flags that commands accepted and ignored
    yield ("nosuch",)
    yield ("smatrix", "fermion", "--numeric", "18")
    yield ("builtin", "nosuch")
    yield ("builtin", "fermion", "--numeric", "2")
    yield ("validate", "fermion", "--numeric", "3")
    yield ("classify", "fermion", "--numeric", "3")
    yield ("torus", "fermion", "--numeric", "3")
    yield ("sphere", "fermion", "--labels", "sigma,sigma", "--numeric", "3")
    yield ("minimal-scan", "--max-pq", "20", "--numeric", "3")


# (SPINMTC_MAX_DEGREE, argv): the degree cap read from the environment
_CAP_CASES = (
    ("abc", ("singvec", "--c", "1", "--h", "0", "--degree", "2")),
    ("1", ("singvec", "--c", "1", "--h", "0", "--degree", "2")),
    ("1", ("singvec", "--p", "3", "--q", "5")),
    ("4", ("singvec", "--p", "3", "--q", "5")),
)


@contextlib.contextmanager
def _environment(workdir: Path, cap: str | None) -> Iterator[None]:
    saved_cwd, saved_env = os.getcwd(), dict(os.environ)
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to this width
    os.environ.pop("SPINMTC_MAX_DEGREE", None)
    if cap is not None:
        os.environ["SPINMTC_MAX_DEGREE"] = cap
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)


def _digest(workdir: Path, cap: str | None, argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with _environment(workdir, cap), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    record = json.dumps([cap, list(argv), code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def corpus_digests(workdir: Path) -> dict[str, str]:
    """The digest of every invocation of the corpus, keyed by its command line."""
    cats = _write_files(workdir)
    cases = [(None, argv) for argv in
             [*_category_cases(cats), *_other_cases(), *_error_cases()]] + list(_CAP_CASES)
    digests = {}
    for cap, argv in cases:
        key = " ".join(argv) if cap is None else f"SPINMTC_MAX_DEGREE={cap} " + " ".join(argv)
        assert key not in digests, key
        digests[key] = _digest(workdir, cap, argv)
    return digests


def test_cli_output_matches_golden_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    digests = corpus_digests(tmp_path)
    assert list(digests) == list(recorded), "the corpus differs from the recorded one"
    changed = [key for key, digest in digests.items() if recorded[key] != digest]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(Path(tmp))
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key, digest in digests.items():
        if key not in recorded:
            print(f"added: {key}", file=sys.stderr)
        elif recorded[key] != digest:
            print(f"changed: {key}", file=sys.stderr)
    for key in recorded.keys() - digests.keys():
        print(f"removed: {key}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
