"""Bundled two-qubit benchmark states.

Tables I and II hold entangled and separable teleportation inputs (the
first labelled by average fidelity); table III holds distillation inputs
labelled by entanglement fraction; the reference table holds the single
state used by the dimension-reduction experiments. Entries are pinned at
two decimals with per-file checksums, and are conditioned at load time:
symmetrised, trace-renormalised, and cleared of the rounding-level
negative eigenvalues such coarse entries can carry.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import FixtureCorrupt
from .qmat import DensityMatrix

# Conditioning budgets for two-decimal entries: trace drift up to 0.01 and
# eigenvalue dips up to the Frobenius bound for half-ulp rounding noise.
TRACE_BUDGET = 1e-2 + 1e-9
EIGENVALUE_BUDGET = 3e-2

_CHECKSUMS = {
    "table1": "3f801200d75accd0dbb3cfe6e003cffca9af394c267acae12b72d064dc56a1da",
    "table2": "aca8cd8fa092b7c8fcd107e0c9413e9694ee2394aac2828f7540a34e0ca22bb2",
    "table3": "d564d5435823185469aa1983eee82b0b89a7bad8401621d401ce89d4745baa09",
    "reference": "389cd1e6b29ac367c7c24fb70232ceb74d8fd5d2ef5649f966eb841383d7a3ff",
}

_TABLE_FILES = {"I": "table1", "II": "table2", "III": "table3", "reference": "reference"}
FIXTURE_TABLES = tuple(_TABLE_FILES)

LABEL_KINDS = {"I": "avg_fidelity", "II": None, "III": "fraction", "reference": None}


@lru_cache(maxsize=None)
def _load_table(table: str) -> dict:
    if table not in _TABLE_FILES:
        raise FixtureCorrupt(f"unknown fixture table {table!r}; expected one of {sorted(_TABLE_FILES)}")
    name = _TABLE_FILES[table]
    blob = resources.files("qembezzle._data").joinpath(f"{name}.json").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _CHECKSUMS[name]:
        raise FixtureCorrupt(f"fixture file {name}.json checksum mismatch: {digest}")
    return json.loads(blob.decode("utf-8"))


def fixture_row_count(table: str) -> int:
    return len(_load_table(table)["rows"])


def fixture_label(table: str, row: int) -> float | None:
    """Published label for the row: average fidelity (I) or fraction (III)."""
    rows = _load_table(table)["rows"]
    if not 0 <= row < len(rows):
        raise FixtureCorrupt(f"table {table} has {len(rows)} rows, requested {row}")
    label = rows[row]["label"]
    return None if label is None else float(label)


def _condition(mat: np.ndarray) -> np.ndarray:
    mat = (mat + mat.conj().T) / 2.0
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > TRACE_BUDGET:
        raise FixtureCorrupt(f"fixture trace {tr!r} off by more than {TRACE_BUDGET}")
    mat = mat / tr
    w, v = np.linalg.eigh(mat)
    if w[0] < -EIGENVALUE_BUDGET:
        raise FixtureCorrupt(f"fixture eigenvalue {w[0]:.3e} beyond rounding budget")
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        mat = (v * w) @ v.conj().T
        mat = mat / float(np.trace(mat).real)
    return mat


def load_fixture(table: str, row: int) -> DensityMatrix:
    """Load and condition one fixture state (split 2 x 2)."""
    rows = _load_table(table)["rows"]
    if not 0 <= row < len(rows):
        raise FixtureCorrupt(f"table {table} has {len(rows)} rows, requested {row}")
    doc = rows[row]["state"]
    entries = doc["entries"]
    mat = np.array([[complex(re, im) for re, im in r] for r in entries])
    if mat.shape != (doc["dim"], doc["dim"]):
        raise FixtureCorrupt(f"fixture entries are not {doc['dim']}x{doc['dim']}")
    mat = _condition(mat)
    return DensityMatrix.from_matrix(mat, split=(int(doc["splitA"]), int(doc["splitB"])))


def reference_initial_state() -> DensityMatrix:
    """The fixed two-qubit state used by the dimension-reduction experiments."""
    return load_fixture("reference", 0)


def all_fixtures() -> list[tuple[str, int, float | None, DensityMatrix]]:
    """Every bundled state as (table, row, label, state)."""
    out = []
    for table in ("I", "II", "III", "reference"):
        for row in range(fixture_row_count(table)):
            out.append((table, row, fixture_label(table, row), load_fixture(table, row)))
    return out
