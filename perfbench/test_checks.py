"""Self-test of the benchmark's output checks: real outputs pass, corrupted copies fail.

    python3 perfbench/test_checks.py

Runs each experiment once at a small size through ``qembezzle.cli.main``,
then feeds the checks corrupted copies of those outputs (a wrong digest,
``n_best > n_mixed``, off-by-one ranks and copy counts, a bound below f, ...)
and requires each to be counted as a failed operation. This shows the
checks are not vacuous.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from qembezzle.cli import main as cli_main  # noqa: E402

DATA = ROOT / "src" / "qembezzle" / "_data"
WORK = HERE / "out" / "selftest"

CALLS = {
    "fidelity": ["fidelity"],
    "nmin": ["nmin", "--candidates", "3", "--seed", "0"],
    "montecarlo": ["montecarlo", "--d", "2", "--samples", "2", "--candidates", "3", "--seed", "0"],
    "embezzle": ["embezzle", "--d", "2"],
    "distill": ["distill"],
    "consumption": ["consumption", "--config", str(WORK / "consumption.json")],
    "qutrit-map": ["qutrit-map", "--resolution", "50"],
}


def argv_for(name: str, out: Path) -> list[str]:
    return CALLS[name] + ["--out", str(out)]


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    return rows[0], rows[1:]


def write_output(path: Path, header: list[str], rows: list[list[str]], digest: str | None = None):
    """Write a CSV plus a manifest whose digest matches it unless ``digest`` is given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    blob = buf.getvalue().encode("utf-8")
    path.write_bytes(blob)
    manifest = {"csv_sha256": digest or hashlib.sha256(blob).hexdigest()}
    path.with_name(path.name + ".manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        (WORK / "consumption.json").write_text(
            json.dumps({"d": 2, "m_values": [4, 12, 20, 31, 64, 100]}), encoding="utf-8")
        for name in CALLS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv_for(name, WORK / f"{name}.csv"))
            if code != 0:
                raise RuntimeError(f"{name} exited {code}")

    def failures(self, name: str, path: Path | None = None, exit_code=0) -> list[str]:
        """Failure messages of one operation, counted the way the benchmark counts them."""
        path = path or WORK / f"{name}.csv"
        doc = {"rounds": [{"round": 0, "plain": {"wall_s": 0.0, "calls": [
            {"argv": argv_for(name, path), "exit": exit_code}]}}]}
        attempted, failed, wrong, messages = run.check_all(doc, DATA)
        self.assertEqual((attempted, failed), (1, 1 if messages else 0))
        self.assertEqual(wrong, 1 if messages and exit_code == 0 else 0)
        return messages

    def corrupted(self, name: str, column: str, row: int, edit) -> list[str]:
        """Failures after ``edit`` rewrites one cell of a copy of the real output."""
        header, rows = read_rows(WORK / f"{name}.csv")
        rows[row][header.index(column)] = str(edit(rows[row][header.index(column)]))
        path = WORK / f"{name}-corrupt.csv"
        write_output(path, header, rows)
        return self.failures(name, path)

    def test_real_outputs_pass(self):
        for name in CALLS:
            with self.subTest(name=name):
                self.assertEqual(self.failures(name), [])

    def test_nonzero_exit_fails(self):
        self.assertTrue(self.failures("fidelity", exit_code=3))

    def test_wrong_digest_fails(self):
        header, rows = read_rows(WORK / "fidelity.csv")
        path = WORK / "fidelity-digest.csv"
        write_output(path, header, rows, digest="0" * 64)
        self.assertIn("csv_sha256", " ".join(self.failures("fidelity", path)))

    def test_montecarlo_n_best_above_n_mixed(self):
        header, rows = read_rows(WORK / "montecarlo.csv")
        n_mixed = int(rows[0][header.index("n_mixed")])
        msgs = self.corrupted("montecarlo", "n_best", 0, lambda _: n_mixed + 1)
        self.assertIn("n_best <= n_mixed", " ".join(msgs))

    def test_montecarlo_epsilon_above_one_minus_f0(self):
        self.assertTrue(self.corrupted("montecarlo", "epsilon", 1, lambda _: 0.99))

    def test_nmin_n_best_above_n_mixed(self):
        header, rows = read_rows(WORK / "nmin.csv")
        n_mixed = int(rows[2][header.index("n_mixed")])
        self.assertTrue(self.corrupted("nmin", "n_best", 2, lambda _: n_mixed + 1))

    def test_nmin_n_mixed_off_by_one(self):
        for delta in (1, -1):
            with self.subTest(delta=delta):
                msgs = self.corrupted("nmin", "n_mixed", 0, lambda v: int(v) + delta)
                self.assertIn("oracle", " ".join(msgs))

    def test_embezzle_rank_off_by_one(self):
        for delta in (1, -1):
            with self.subTest(delta=delta):
                msgs = self.corrupted("embezzle", "schmidt_rank", 1, lambda v: int(v) + delta)
                self.assertIn("rank", " ".join(msgs))

    def test_distill_embezzle_rank_off_by_one(self):
        header, rows = read_rows(WORK / "distill.csv")
        row = next(i for i, r in enumerate(rows) if r[header.index("kind")] == "E")
        self.assertTrue(self.corrupted("distill", "copies_or_rank", row, lambda v: int(v) - 1))

    def test_distill_copies_off_by_one(self):
        self.assertTrue(self.corrupted("distill", "copies_or_rank", 0, lambda v: int(v) + 1))

    def test_consumption_p_exact_moved(self):
        self.assertTrue(self.corrupted("consumption", "p_exact", 2, lambda v: float(v) + 1e-6))

    def test_consumption_p_exact_above_bound(self):
        header, rows = read_rows(WORK / "consumption.csv")
        bound = float(rows[-1][header.index("p_bound")])
        msgs = self.corrupted("consumption", "p_exact", len(rows) - 1, lambda _: bound * 1.01)
        self.assertIn("above p_bound", " ".join(msgs))

    def test_qutrit_map_bound_below_f(self):
        header, rows = read_rows(WORK / "qutrit-map.csv")
        row = len(rows) // 3
        f = float(rows[row][header.index("f")])
        msgs = self.corrupted("qutrit-map", "correlated_bound", row, lambda _: f - 1e-3)
        self.assertIn("below f", " ".join(msgs))

    def test_qutrit_map_bound_below_grid_oracle(self):
        # A point whose bound exceeds its own f: lowering it to f must be caught by the grid.
        header, rows = read_rows(WORK / "qutrit-map.csv")
        fi, bi = header.index("f"), header.index("correlated_bound")
        row = max(range(len(rows)), key=lambda i: float(rows[i][bi]) - float(rows[i][fi]))
        f = rows[row][fi]
        msgs = self.corrupted("qutrit-map", "correlated_bound", row, lambda _: f)
        self.assertIn("no more entropy", " ".join(msgs))

    def test_qutrit_map_rank_off_by_one(self):
        header, rows = read_rows(WORK / "qutrit-map.csv")
        mi = header.index("M_required")
        for delta in (1, -1):
            with self.subTest(delta=delta):
                for r in rows:
                    if int(r[mi]) > 0:
                        r[mi] = str(int(r[mi]) + delta)
                path = WORK / "qutrit-map-rank.csv"
                write_output(path, header, rows)
                self.assertIn("M_required", " ".join(self.failures("qutrit-map", path)))
                for r in rows:
                    if int(r[mi]) > 0:
                        r[mi] = str(int(r[mi]) - delta)

    def test_fidelity_fraction_moved(self):
        self.assertTrue(self.corrupted("fidelity", "fraction", 0, lambda v: float(v) + 1e-4))


if __name__ == "__main__":
    unittest.main()
