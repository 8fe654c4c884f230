"""Correctness checks of a pass: reference comparison and byte identity.

The committed reference (reference.json) holds every row of one verify_all
pass at the default seed, keyed by (entry, dim, member).  spectral_3d runs a
subset of the same (entry, dim) pairs on the same 3-D corpus, so the same
file is its reference too.

Run this file to rebuild the reference from the current code:

    python3 perfbench/check.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The ROADMAP oracle bound: a numeric field may move by this share of its
# reference value.
REL_TOL = 1e-12
# The relative bound admits nothing around a field that is exactly 0 in the
# reference.  Such a field comes from a path that yields an exact zero (a 0/0
# ratio, a zero side), so a nonzero value there is a change of behaviour, not
# rounding: the floor is the smallest positive normal double, which admits
# only zeros reached through an underflow.  The default-seed reference has no
# zero field today.
ABS_FLOOR = 2.2250738585072014e-308


def canonical(doc: dict) -> str:
    """The report as save_report() writes it, without the metadata block."""
    body = {k: v for k, v in doc.items() if k != "metadata"}
    return json.dumps(body, sort_keys=True, indent=2, allow_nan=True)


def _leaves(value, prefix=""):
    """Flatten a row into (path, leaf) pairs; lists and dicts recurse."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def row_table(doc: dict) -> dict:
    """{(id, dim, member): {field: leaf}} for every row of a saved report."""
    return {(rep["id"], rep["dim"], row["member"]): dict(_leaves(row))
            for rep in doc["reports"] for row in rep["rows"]}


def _close(got, ref) -> bool:
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return got == ref
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if math.isnan(ref):
        return math.isnan(got)
    if math.isinf(ref) or not math.isfinite(got):
        return got == ref
    return abs(got - ref) <= max(REL_TOL * abs(ref), ABS_FLOOR)


def failed_rows(doc: dict, reference: dict | None) -> set:
    """Keys of the rows of `doc` that count as failed.

    With a reference (the pass ran at the reference seed) a row fails when it
    is missing, unexpected, or any field differs from the reference beyond
    REL_TOL.  Without one, a row fails when the report lists it among its
    failures: a non-finite side, or an asserted constant exceeded.
    """
    got = row_table(doc)
    if reference is None:
        failed = set()
        for rep in doc["reports"]:
            for msg in rep["failures"]:
                member = int(msg.split()[1].rstrip(":"))
                failed.add((rep["id"], rep["dim"], member))
        return failed
    ids = {(rep["id"], rep["dim"]) for rep in doc["reports"]}
    expected = {k: v for k, v in reference.items() if k[:2] in ids}
    failed = set(got) ^ set(expected)
    for key in set(got) & set(expected):
        row, ref = got[key], expected[key]
        if row.keys() != ref.keys() or not all(_close(row[f], ref[f]) for f in ref):
            failed.add(key)
    return failed


def load_reference(seed: int, path=REFERENCE) -> dict | None:
    """The reference row table if `seed` is the reference seed, else None."""
    with open(path) as fh:
        ref = json.load(fh)
    if seed != ref["seed"]:
        return None
    table = {}
    for key, rows in ref["rows"].items():
        rid, dim = key.rsplit("@", 1)
        for row in rows:
            table[(rid, int(dim), row["member"])] = row
    return table


def write_reference(doc: dict, seed: int, path=REFERENCE) -> None:
    """One row per line, so that a change to the reference diffs row by row."""
    lines = [f'{{"seed": {seed}, "rel_tol": {REL_TOL!r}, "rows": {{']
    reports = sorted(doc["reports"], key=lambda r: (r["id"], r["dim"]))
    for i, rep in enumerate(reports):
        rows = [json.dumps(dict(_leaves(row)), sort_keys=True) for row in rep["rows"]]
        tail = "," if i < len(reports) - 1 else ""
        lines.append(f'"{rep["id"]}@{rep["dim"]}": [\n' + ",\n".join(rows) + f"\n]{tail}")
    lines.append("}}")
    Path(path).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import warnings

    from ineqkit import verify
    import workloads

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reports, _ = verify.run_all(**workloads.inputs("verify_all", verify.DEFAULT_SEED))
    write_reference({"reports": [r.to_dict() for r in reports]}, verify.DEFAULT_SEED)
    print(f"wrote {REFERENCE}")
