"""The benchmark's workloads: the CLI calls of one round, built from the seed.

A round is the list of ``qembezzle`` argv vectors one workload runs, plus
the input files it needs. Round ``r`` of seed ``s`` always gets the same
inputs. Only the standard library and numpy are imported here, so the run
process that builds its rounds from this module loads nothing the program
would not load itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("montecarlo", "nmin", "tables")

# Rounds of one run; round r of seed s maps to the program seed below.
ROUND_LIMIT = 64
CALL_LIMIT = 8

MONTECARLO_CALLS = 8
MONTECARLO_SAMPLES = 4  # per call
CANDIDATES = 100
NMIN_RESOURCES = 3
CONSUMPTION_M = list(range(4, 2049, 8))
QUTRIT_RESOLUTION = 200

# Tags that keep the benchmark's own numpy streams apart.
_RESOURCE_TAG = 0xBE4C


def program_seed(seed: int, rnd: int, call: int = 0) -> int:
    """Master seed for call ``call`` of round ``rnd`` of benchmark seed ``seed``.

    ``SeededRng.derive`` XORs the master seed with stream indices below
    2**40, so two master seeds that differ only in bits 40..63 never share a
    stream. Every (seed, round, call) of a seed below 2**15 gets its own high bits.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (0 <= rnd < ROUND_LIMIT and 0 <= call < CALL_LIMIT):
        raise ValueError(f"round {rnd} or call {call} out of range")
    return (((seed * ROUND_LIMIT + rnd) * CALL_LIMIT + call) % 2**24) << 40


def nmin_resource(seed: int, rnd: int, index: int) -> np.ndarray:
    """Two-qubit resource t |psi><psi| + (1 - t) sigma, psi Haar, sigma Hilbert-Schmidt."""
    gen = np.random.default_rng([_RESOURCE_TAG, seed, rnd, index])
    psi = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    psi /= np.linalg.norm(psi)
    g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    t = gen.uniform(0.0, 1.0)
    rho = t * np.outer(psi, psi.conj()) + (1.0 - t) * sigma
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def write_matrix_document(path: Path, rho: np.ndarray) -> None:
    """Write a 2x2-split state in the program's JSON matrix document format."""
    doc = {
        "dim": 4,
        "splitA": 2,
        "splitB": 2,
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def build_round(workload: str, seed: int, rnd: int, out_dir: Path) -> list[list[str]]:
    """Write the round's input files under ``out_dir`` and return its argv vectors."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ps = str(program_seed(seed, rnd))

    def out(name: str) -> list[str]:
        return ["--out", str(out_dir / f"{name}.csv")]

    if workload == "montecarlo":
        return [
            ["montecarlo", "--d", "2", "--samples", str(MONTECARLO_SAMPLES),
             "--candidates", str(CANDIDATES), "--seed", str(program_seed(seed, rnd, i)),
             *out(f"montecarlo{i}")]
            for i in range(MONTECARLO_CALLS)
        ]
    if workload == "nmin":
        calls = [["nmin", "--state-source", "fixture:reference:0",
                  "--candidates", str(CANDIDATES), "--seed", ps, *out("nmin_reference")]]
        for j in range(NMIN_RESOURCES):
            path = out_dir / f"resource{j}.json"
            write_matrix_document(path, nmin_resource(seed, rnd, j))
            calls.append(["nmin", "--state-source", f"file:{path}",
                          "--candidates", str(CANDIDATES), "--seed", ps, *out(f"nmin_resource{j}")])
        return calls
    if workload == "tables":
        config = out_dir / "consumption.json"
        config.write_text(json.dumps({"d": 2, "m_values": CONSUMPTION_M}), encoding="utf-8")
        return [
            ["fidelity", *out("fidelity")],
            ["embezzle", "--d", "2", *out("embezzle_d2")],
            ["embezzle", "--d", "3", *out("embezzle_d3")],
            ["distill", *out("distill")],
            ["consumption", "--config", str(config), *out("consumption")],
            ["qutrit-map", "--resolution", str(QUTRIT_RESOLUTION), *out("qutrit_map")],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
