"""The category file format: a strict JSON reader and the canonical writer.

Only the commands that read a category file or write one (``builtin``)
execute this module; a builtin key read by the other category commands is
built by ``catalog`` without it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import _fraction_str, parse_fraction
from .cyclotomic import Cyclotomic
from .fusion import FormatError, FusionData

__all__ = [
    "MAX_CONDUCTOR",
    "fusion_from_dict",
    "fusion_to_dict",
    "load_fusion",
    "dump_fusion",
]

_ALLOWED_KEYS = {"name", "labels", "unit", "dual", "fusion", "twist", "qdim", "sigma_vv"}
_REQUIRED_KEYS = {"name", "labels", "unit", "dual", "fusion", "twist", "qdim"}
# Largest conductor (lcm of twist denominators and qdim conductors) a file may
# declare: arithmetic mod Phi_N grows with N (README gives times at the cap).
MAX_CONDUCTOR = 10_000


def fusion_from_dict(obj: object) -> FusionData:
    """Strict reader for the category file format; unknown keys are errors."""
    if not isinstance(obj, dict):
        raise FormatError("category file must contain a JSON object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise FormatError(f"unknown keys in category file: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise FormatError(f"missing keys in category file: {sorted(missing)}")

    name = obj["name"]
    labels = obj["labels"]
    unit = obj["unit"]
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("labels must be a list of strings")
    if not isinstance(unit, str):
        raise FormatError("unit must be a string")

    dual = obj["dual"]
    if not isinstance(dual, dict) or not all(isinstance(v, str) for v in dual.values()):
        raise FormatError("dual must map labels to labels")

    fus_raw = obj["fusion"]
    if not isinstance(fus_raw, list):
        raise FormatError("fusion must be a list of [i, j, k, n] entries")
    fusion: dict[tuple[str, str, str], int] = {}
    for item in fus_raw:
        if (
            not isinstance(item, list)
            or len(item) != 4
            or not all(isinstance(x, str) for x in item[:3])
            or not isinstance(item[3], int)
            or isinstance(item[3], bool)
        ):
            raise FormatError(f"malformed fusion entry: {item!r}")
        i, j, k, v = item
        if v < 0:
            raise FormatError(f"fusion multiplicity must be nonnegative: {item!r}")
        key = (i, j, k)
        if key in fusion:
            raise FormatError(f"duplicate fusion entry for {key}")
        if v:
            fusion[key] = v

    twist_raw = obj["twist"]
    if not isinstance(twist_raw, dict):
        raise FormatError("twist must map labels to rationals")
    try:
        twist = {lab: parse_fraction(v) for lab, v in twist_raw.items()}
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    qdim_raw = obj["qdim"]
    if not isinstance(qdim_raw, dict):
        raise FormatError("qdim must map labels to cyclotomic values")
    declared = [v.get("conductor") if isinstance(v, dict) else 1 for v in qdim_raw.values()]
    conductor = math.lcm(*(t.denominator for t in twist.values()),
                         *(c for c in declared if isinstance(c, int) and c > 0))
    if conductor > MAX_CONDUCTOR:
        raise FormatError(f"conductor {conductor} of {name!r} exceeds the limit {MAX_CONDUCTOR}")
    qdim: dict[str, Cyclotomic] = {}
    for lab, v in qdim_raw.items():
        if isinstance(v, dict):
            try:
                qdim[lab] = Cyclotomic.from_dict(v)
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        else:
            try:
                qdim[lab] = Cyclotomic.from_rational(parse_fraction(v))
            except ValueError as exc:
                raise FormatError(f"malformed qdim for {lab!r}: {v!r}") from exc

    sigma_vv = obj.get("sigma_vv")
    if sigma_vv is not None and (type(sigma_vv) is not int or sigma_vv not in (1, -1)):
        raise FormatError(f"sigma_vv must be 1 or -1, got {sigma_vv!r}")

    return FusionData(
        name=name,
        labels=tuple(labels),
        unit=unit,
        dual=dual,
        fusion=fusion,
        twist=twist,
        qdim=qdim,
        sigma_vv=sigma_vv,
    )


def fusion_to_dict(data: FusionData) -> dict:
    """Canonical (deterministically ordered) dict form of a category."""
    # entries in label order of (i, j, k), sorted by the one integer that
    # reads the three label positions as digits base len(labels)
    n = len(data.labels)
    order = {lab: pos for pos, lab in enumerate(data.labels)}
    keyed = {(order[i] * n + order[j]) * n + order[k]: [i, j, k, v]
             for (i, j, k), v in data.fusion.items() if v}
    out: dict = {
        "name": data.name,
        "labels": list(data.labels),
        "unit": data.unit,
        "dual": {lab: data.dual[lab] for lab in data.labels},
        "fusion": [keyed[key] for key in sorted(keyed)],
        "twist": {lab: _fraction_str(data.twist[lab]) for lab in data.labels},
        "qdim": {lab: data.qdim[lab].to_dict() for lab in data.labels},
    }
    if data.sigma_vv is not None:
        out["sigma_vv"] = data.sigma_vv
    return out


def load_fusion(path: str | Path) -> FusionData:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    return fusion_from_dict(obj)


def dump_fusion(data: FusionData) -> str:
    """``json.dumps(fusion_to_dict(data), indent=2)`` and a newline, with each
    ``fusion`` row, most of the file, written by one format string."""
    doc = fusion_to_dict(data)
    enc = {lab: json.dumps(lab) for lab in data.labels}
    rows = ",\n".join(f"    [\n      {enc[i]},\n      {enc[j]},\n      {enc[k]},\n      "
                       f"{v if type(v) is int else json.dumps(v)}\n    ]" for i, j, k, v in doc["fusion"])
    text = json.dumps({**doc, "fusion": []}, indent=2)
    return (text.replace('\n  "fusion": []', f'\n  "fusion": [\n{rows}\n  ]', 1) if rows else text) + "\n"
