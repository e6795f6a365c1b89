"""Output checks that do not rely on the program or on stored copies of its output.

Every check recomputes what it can with numpy and mpmath from the
method's definitions, or tests a property the method must have. Fixture
states are read from the program's data files and conditioned here, the
same way the fixture format documents it. Each function returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np

# Documented default error-budget grids of the experiments the benchmark runs.
DEFAULT_EPS_GRID = {
    "nmin": [0.02, 0.05, 0.1, 0.15, 0.2],
    "embezzle": [0.05, 0.1, 0.15, 0.2, 0.3],
    "distill": [0.1, 0.2, 0.3],
}

SCHEMAS = {
    "fidelity": ("table", "row", "label", "label_kind", "fraction", "avg_fidelity"),
    "nmin": ("epsilon", "n_mixed", "n_best", "p_mixed", "p_best", "descent_ratio"),
    "montecarlo": ("sample", "epsilon", "avg_fidelity_unassisted", "n_mixed", "n_best",
                   "descent_ratio"),
    "embezzle": ("epsilon", "schmidt_rank", "fraction_bound", "fraction_exact",
                 "avg_fidelity_lb"),
    "consumption": ("d", "schmidt_rank", "p_exact", "p_closed_form", "p_bound"),
    "qutrit-map": ("lambda1", "lambda2", "lambda3", "f", "correlated_bound",
                   "label_correlated", "label_embezzling", "M_required"),
    "distill": ("table", "row", "epsilon", "kind", "p", "copies_or_rank", "k", "fidelity",
                "fidelity_kind", "consumption"),
}

COPIES_CAP = 2**40
P_CEILING = 1.0 - 1e-6
# Relative slack on a recomputed copy-count objective before it is ceiled:
# p is printed to 12 significant digits, which moves the objective by less
# than 1e-9 relative even at p = 1 - 1e-6, where tau is worst conditioned.
CEIL_RTOL = 1e-8
FLOAT_TOL = 1e-9  # printed floats carry 12 significant digits
DENSE_RANK_LIMIT = 32  # consumption ranks checked by a dense partial trace
ORACLE_RESOLUTION = 360  # independent simplex grid for the correlated bound
_FIXTURE_FILES = {"I": "table1", "II": "table2", "III": "table3", "reference": "reference"}
_LABEL_KINDS = {"I": "avg_fidelity", "III": "fraction"}


# ---------------------------------------------------------------------------
# Inputs: call parameters, fixtures, matrix documents
# ---------------------------------------------------------------------------


def call_params(argv: list[str]) -> dict:
    """Experiment parameters from a CLI argv, with the CLI's documented defaults."""
    params = {"experiment": argv[0], "d": 2, "samples": 200, "resolution": 100,
              "threshold": 0.9, "margin": 0.01, "state_source": None, "m_values": None,
              "epsilon_grid": None}
    flags = {"--d": ("d", int), "--samples": ("samples", int),
             "--resolution": ("resolution", int), "--state-source": ("state_source", str)}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag == "--config":
            params.update(json.loads(Path(argv[i + 1]).read_text(encoding="utf-8")))
        elif flag in flags:
            key, kind = flags[flag]
            params[key] = kind(argv[i + 1])
        i += 2
    return params


def _condition(mat: np.ndarray) -> np.ndarray:
    """Symmetrise, renormalise the trace and clip rounding-level negative eigenvalues."""
    mat = (mat + mat.conj().T) / 2.0
    mat = mat / np.trace(mat).real
    w, v = np.linalg.eigh(mat)
    if w[0] < 0.0:
        mat = (v * np.clip(w, 0.0, None)) @ v.conj().T
        mat = mat / np.trace(mat).real
    return mat


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


@lru_cache(maxsize=None)
def fixture_table(data_dir: str, table: str) -> tuple[tuple[float | None, np.ndarray], ...]:
    doc = json.loads((Path(data_dir) / f"{_FIXTURE_FILES[table]}.json").read_text("utf-8"))
    return tuple((row["label"], _condition(_matrix(row["state"]["entries"])))
                 for row in doc["rows"])


def read_state(source: str, data_dir: Path) -> np.ndarray:
    if source.startswith("file:"):
        doc = json.loads(Path(source[5:]).read_text(encoding="utf-8"))
        mat = _matrix(doc["entries"])
        return (mat + mat.conj().T) / 2.0
    _, table, row = source.split(":")
    return fixture_table(str(data_dir), table)[int(row)][1]


def phi_plus(d: int) -> np.ndarray:
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return v


def fraction(rho: np.ndarray) -> float:
    phi = phi_plus(int(round(math.sqrt(rho.shape[0]))))
    return float(np.real(phi @ rho @ phi))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def top_generalised_eigenvalue(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """lambda_max(rho, tau(p)) for tau(p) = p phi+ + (1 - p) I/d^2, over an array of p.

    tau(p) has eigenvalue p + (1 - p)/d^2 on phi+ and (1 - p)/d^2 elsewhere,
    so tau^(-1/2) is known in closed form and no eigensolve of tau is needed.
    """
    d2 = rho.shape[0]
    p = np.asarray(p, dtype=float)
    phi = phi_plus(int(round(math.sqrt(d2))))
    proj = np.outer(phi, phi)
    low = (1.0 - p) / d2
    a = 1.0 / np.sqrt(p + low) - 1.0 / np.sqrt(low)
    inv_sqrt = a[:, None, None] * proj + (1.0 / np.sqrt(low))[:, None, None] * np.eye(d2)
    return np.linalg.eigvalsh(inv_sqrt @ rho @ inv_sqrt)[:, -1]


def copies_objective(rho: np.ndarray, eps_slack: float, p: np.ndarray) -> np.ndarray:
    """lambda_max(rho, tau(p)) / slack(p)^2 for zeta = I/d^2, +inf where slack <= 0."""
    p = np.asarray(p, dtype=float)
    slack = eps_slack - np.sqrt((1.0 - p) * (1.0 - 1.0 / rho.shape[0]))
    lam = top_generalised_eigenvalue(rho, p)
    return np.where(slack > 0, lam / np.where(slack > 0, slack, 1.0) ** 2, np.inf)


def ceil_capped(g: float) -> int:
    if not math.isfinite(g) or g >= COPIES_CAP:
        return COPIES_CAP
    return max(1, math.ceil(g))


def _rank_meets(d: int, m: int, target_fraction) -> bool:
    """Whether ((ln M - ln d) / ln M)^2 reaches the target, at 50 digits."""
    with mp.workdps(50):
        lm = mp.log(m)
        return ((lm - mp.log(d)) / lm) ** 2 >= target_fraction


def smallest_rank_failures(d: int, rank: int, target, what: str) -> list[str]:
    """A rank must reach the target fraction (an mpf) and rank - 1 must not."""
    out = []
    if not _rank_meets(d, rank, target):
        out.append(f"{what}: rank {rank} does not reach the target")
    if rank - 1 >= 2 and _rank_meets(d, rank - 1, target):
        out.append(f"{what}: rank {rank - 1} already reaches the target, so {rank} is not smallest")
    return out


def teleport_target(d: int, eps: float):
    """Fraction a rank must certify for average fidelity 1 - eps: 1 - eps (d+1)/d."""
    with mp.workdps(50):
        return 1 - mp.mpf(eps) * (d + 1) / d


def residual_overlap(d: int, m: int) -> float:
    """<Gamma|xi|Gamma> for the residual catalyst xi, from the protocol's output state.

    The output is sum_j a_j |k_j k_j>|l_j l_j>, l_j = ceil(j/d),
    k_j = j - (l_j - 1) d, a_j = 1/sqrt(j H_M). Tracing out the pair leaves
    one branch v_k = sum_{k_j = k} a_j |l_j l_j> per k, and
    <Gamma|xi|Gamma> = sum_k (sum_{k_j = k} a_j a_{l_j})^2.
    """
    j = np.arange(1, m + 1, dtype=float)
    a = 1.0 / np.sqrt(j * np.sum(1.0 / j))
    l = np.ceil(j / d).astype(np.int64)
    k = (np.arange(m) % d)
    branch = np.bincount(k, weights=a * a[l - 1], minlength=d)
    return float(np.sum(branch**2))


def residual_overlap_dense(d: int, m: int) -> float:
    """The same overlap from the dense pure output state and an explicit partial trace."""
    psi = np.zeros((d * d, m * m))
    j = np.arange(1, m + 1)
    a = 1.0 / np.sqrt(j * np.sum(1.0 / j))
    for jj in range(1, m + 1):
        l = -(-jj // d)
        k = jj - (l - 1) * d
        psi[(k - 1) * d + (k - 1), (l - 1) * m + (l - 1)] = a[jj - 1]
    xi = psi.T @ psi  # trace over the pair
    gamma = np.zeros(m * m)
    gamma[:: m + 1] = a
    return float(gamma @ xi @ gamma)


def _entropy_bits(rows: np.ndarray) -> np.ndarray:
    safe = np.where(rows > 0, rows, 1.0)
    return -np.sum(rows * np.log2(safe), axis=1)


@lru_cache(maxsize=None)
def _entropy_capped_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Qutrit simplex grid sorted by entropy, with the running max of (sum sqrt)^2."""
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    keep = i + j <= resolution
    pts = np.stack([i[keep], j[keep], resolution - i[keep] - j[keep]], axis=1) / resolution
    ent = _entropy_bits(pts)
    order = np.argsort(ent, kind="stable")
    best = np.maximum.accumulate(np.sum(np.sqrt(pts[order]), axis=1) ** 2)
    return ent[order], best


# ---------------------------------------------------------------------------
# Per-experiment checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_fidelity(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    expected = [(t, r, lab, rho) for t in ("I", "II", "III", "reference")
                for r, (lab, rho) in enumerate(fixture_table(str(data_dir), t))]
    if len(rows) != len(expected):
        return [f"fidelity: {len(rows)} rows, expected {len(expected)}"]
    for row, (table, r, label, rho) in zip(rows, expected):
        where = f"fidelity {table}:{r}"
        if (row["table"], int(row["row"])) != (table, r):
            out.append(f"{where}: row is {row['table']}:{row['row']}")
            continue
        frac = fraction(rho)
        f, avg = float(row["fraction"]), float(row["avg_fidelity"])
        if not _close(f, frac):
            out.append(f"{where}: fraction {f} but <phi+|rho|phi+> = {frac}")
        if not _close(avg, (2 * f + 1) / 3):
            out.append(f"{where}: avg_fidelity {avg} != (2F+1)/3")
        kind = _LABEL_KINDS.get(table, "")
        if row["label_kind"] != kind:
            out.append(f"{where}: label_kind {row['label_kind']!r}, expected {kind!r}")
        if kind:
            value = avg if kind == "avg_fidelity" else f
            if abs(value - float(row["label"])) > 0.01 or abs(value - label) > 0.01:
                out.append(f"{where}: {kind} {value} is not within 0.01 of label {label}")
    return out


def check_nmin(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    d = params["d"]
    rho = read_state(params["state_source"] or "fixture:reference:0", data_dir)
    grid = params["epsilon_grid"] or DEFAULT_EPS_GRID["nmin"]
    if [float(r["epsilon"]) for r in rows] != grid:
        return [f"nmin: epsilon column {[r['epsilon'] for r in rows]}, expected {grid}"]
    for row in rows:
        eps = float(row["epsilon"])
        where = f"nmin eps={eps}"
        n_mixed, n_best = int(row["n_mixed"]), int(row["n_best"])
        p_mixed = float(row["p_mixed"])
        if not 1 <= n_best <= n_mixed:
            out.append(f"{where}: need 1 <= n_best <= n_mixed, got {n_best}, {n_mixed}")
        ratio = (n_mixed - n_best) / n_mixed if n_mixed else math.nan
        if not _close(float(row["descent_ratio"]), ratio):
            out.append(f"{where}: descent_ratio {row['descent_ratio']} != {ratio}")
        eps_slack = math.sqrt(eps * (d + 1) / d)
        g = float(copies_objective(rho, eps_slack, [p_mixed])[0])
        lo, hi = ceil_capped(g * (1 - CEIL_RTOL)), ceil_capped(g * (1 + CEIL_RTOL))
        if not lo <= n_mixed <= hi:
            out.append(f"{where}: n_mixed {n_mixed} but the oracle at p={p_mixed} gives {g}")
        p_floor = max(0.0, 1.0 - eps_slack**2 / (1.0 - 1.0 / d**2))
        ps = np.concatenate([np.linspace(p_floor, P_CEILING, 20001),
                             1.0 - np.logspace(math.log10(max(1.0 - p_floor, 1e-6)), -6, 2001)])
        g_min = float(np.min(copies_objective(rho, eps_slack, ps)))
        if n_mixed > ceil_capped(g_min * (1 + CEIL_RTOL)):
            out.append(f"{where}: n_mixed {n_mixed} above the dense-grid minimum {g_min}")
    return out


def check_montecarlo(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    d = params["d"]
    if [int(r["sample"]) for r in rows] != list(range(params["samples"])):
        return [f"montecarlo: samples {[r['sample'] for r in rows]}, expected 0..{params['samples'] - 1}"]
    for row in rows:
        where = f"montecarlo sample {row['sample']}"
        eps, f0 = float(row["epsilon"]), float(row["avg_fidelity_unassisted"])
        n_mixed, n_best = int(row["n_mixed"]), int(row["n_best"])
        if not 1 <= n_best <= n_mixed < COPIES_CAP:
            out.append(f"{where}: need 1 <= n_best <= n_mixed < 2^40, got {n_best}, {n_mixed}")
        if not _close(float(row["descent_ratio"]), (n_mixed - n_best) / max(n_mixed, 1)):
            out.append(f"{where}: descent_ratio {row['descent_ratio']} is not (n_mixed-n_best)/n_mixed")
        if not 1.0 / (d + 1) - FLOAT_TOL <= f0 <= 1.0:
            out.append(f"{where}: avg_fidelity_unassisted {f0} outside [1/(d+1), 1]")
        if not 0.0 < eps <= 1.0 - f0 + FLOAT_TOL:
            out.append(f"{where}: epsilon {eps} outside (0, 1 - f0]")
        limit = math.ceil(d / (eps * (d + 1)) * (1 - CEIL_RTOL))
        if n_mixed < limit:
            out.append(f"{where}: n_mixed {n_mixed} below the p -> 1 limit {limit}")
    return out


def _check_rank_row(d: int, rank: int, bound: float, target, where: str) -> list[str]:
    out = smallest_rank_failures(d, rank, target, where)
    expect = ((math.log(rank) - math.log(d)) / math.log(rank)) ** 2
    if not _close(bound, expect):
        out.append(f"{where}: fraction bound {bound} != ((ln M - ln d)/ln M)^2 = {expect}")
    return out


def check_embezzle(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    d = params["d"]
    grid = params["epsilon_grid"] or DEFAULT_EPS_GRID["embezzle"]
    if [float(r["epsilon"]) for r in rows] != grid:
        return [f"embezzle: epsilon column {[r['epsilon'] for r in rows]}, expected {grid}"]
    for row in rows:
        eps = float(row["epsilon"])
        where = f"embezzle d={d} eps={eps}"
        rank, bound = int(row["schmidt_rank"]), float(row["fraction_bound"])
        out += _check_rank_row(d, rank, bound, teleport_target(d, eps), where)
        exact = float(row["fraction_exact"])
        if not math.isnan(exact) and not bound - FLOAT_TOL <= exact <= 1.0 + FLOAT_TOL:
            out.append(f"{where}: fraction_exact {exact} not in [fraction_bound {bound}, 1]")
        if not _close(float(row["avg_fidelity_lb"]), (bound * d + 1) / (d + 1)):
            out.append(f"{where}: avg_fidelity_lb {row['avg_fidelity_lb']} != (F d + 1)/(d + 1)")
    return out


def check_distill(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    d = params["d"]
    source = params["state_source"] or "fixture:III"
    table = source.split(":")[1]
    states = list(enumerate(fixture_table(str(data_dir), table)))
    grid = params["epsilon_grid"] or DEFAULT_EPS_GRID["distill"]
    expected = [(table, r, eps, kind) for r, _ in states for eps in grid for kind in ("CS", "E")]
    got = [(row["table"], int(row["row"]), float(row["epsilon"]), row["kind"]) for row in rows]
    if got != expected:
        return [f"distill: rows {got}, expected {expected}"]
    for row in rows:
        eps = float(row["epsilon"])
        rho = states[int(row["row"])][1][1]
        where = f"distill {table}:{row['row']} eps={eps} {row['kind']}"
        fid, cons = float(row["fidelity"]), float(row["consumption"])
        n = int(row["copies_or_rank"])
        if row["kind"] == "CS":
            k, p = float(row["k"]), float(row["p"])
            # zeta = I/d^2 has fraction 1/d^2, so p = 1 - eps / (4 (1 - 1/d^2)).
            p_expect = max(0.0, 1.0 - eps / (4.0 * (1.0 - 1.0 / d**2)))
            k_expect = max(0.0, math.log2(top_generalised_eigenvalue(rho, [p_expect])[0]))
            if not _close(p, p_expect):
                out.append(f"{where}: p {p} != {p_expect}")
            if not _close(k, k_expect, 1e-8):
                out.append(f"{where}: k {k} != D_max(rho||tau) = {k_expect}")
            g = 2.0 ** (k + 2) / eps
            if not ceil_capped(g * (1 - CEIL_RTOL)) <= n <= ceil_capped(g * (1 + CEIL_RTOL)):
                out.append(f"{where}: copies {n} != ceil(2^(k+2)/eps) = ceil({g})")
            exact = fraction(rho) / n + (n - 1) / n * (p + (1 - p) / d**2)
            if not _close(fid, exact) or fid < 1.0 - eps - FLOAT_TOL:
                out.append(f"{where}: fidelity {fid}, oracle {exact}, floor 1 - eps")
            if not _close(cons, math.sqrt(2.0**k / n)):
                out.append(f"{where}: consumption {cons} != sqrt(2^k / copies)")
            if row["fidelity_kind"] != "exact":
                out.append(f"{where}: fidelity_kind {row['fidelity_kind']!r}")
        else:
            with mp.workdps(50):
                target = 1 - mp.mpf(eps)
            out += _check_rank_row(d, n, fid, target, where)
            res = math.sqrt(max(0.0, 1.0 - residual_overlap(d, n)))
            if abs(cons - res) > 1e-7:
                out.append(f"{where}: consumption {cons} != residual distance {res}")
            if row["fidelity_kind"] != "bound":
                out.append(f"{where}: fidelity_kind {row['fidelity_kind']!r}")
    return out


def check_consumption(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    d = params["d"]
    m_values = params["m_values"] or list(range(max(d, 4), 65))
    if [int(r["schmidt_rank"]) for r in rows] != m_values or any(int(r["d"]) != d for r in rows):
        return [f"consumption: (d, rank) columns do not match d={d}, m_values={m_values}"]
    for row in rows:
        m = int(row["schmidt_rank"])
        where = f"consumption d={d} M={m}"
        p_exact, p_closed, p_bound = (float(row[c]) for c in ("p_exact", "p_closed_form", "p_bound"))
        expect = math.sqrt(2.0 * math.log(d) / math.log(m))
        if not _close(p_bound, expect):
            out.append(f"{where}: p_bound {p_bound} != sqrt(2 ln d / ln M) = {expect}")
        if p_exact > p_bound + FLOAT_TOL:
            out.append(f"{where}: p_exact {p_exact} above p_bound {p_bound}")
        if not math.isnan(p_closed) and abs(p_exact - p_closed) > 1e-9:
            out.append(f"{where}: p_exact {p_exact} and p_closed_form {p_closed} differ")
        oracle = residual_overlap_dense(d, m) if m <= DENSE_RANK_LIMIT else residual_overlap(d, m)
        p_oracle = math.sqrt(max(0.0, 1.0 - oracle))
        if abs(p_exact - p_oracle) > 1e-9:
            out.append(f"{where}: p_exact {p_exact} but the residual state gives {p_oracle}")
    return out


def check_qutrit_map(rows: list[dict], params: dict, data_dir: Path) -> list[str]:
    out = []
    res, threshold, margin = params["resolution"], params["threshold"], params["margin"]
    if len(rows) != (res + 1) * (res + 2) // 2:
        return [f"qutrit-map: {len(rows)} rows, expected (R+1)(R+2)/2 for R={res}"]
    lam = np.array([[float(r["lambda1"]), float(r["lambda2"]), float(r["lambda3"])] for r in rows])
    ticks = np.rint(lam * res).astype(int)
    if np.max(np.abs(lam * res - ticks)) > 1e-6 or np.any(ticks.sum(axis=1) != res) \
            or len({tuple(t) for t in ticks}) != len(rows):
        return ["qutrit-map: points are not the distinct simplex grid points at this resolution"]
    f = np.array([float(r["f"]) for r in rows])
    bound = np.array([float(r["correlated_bound"]) for r in rows])
    f_expect = (np.sum(np.sqrt(lam), axis=1) ** 2 + 1.0) / 4.0
    for idx in np.flatnonzero(np.abs(f - f_expect) > FLOAT_TOL):
        out.append(f"qutrit-map point {lam[idx]}: f {f[idx]} != ((sum sqrt)^2 + 1)/4")
    for idx in np.flatnonzero(bound < f - FLOAT_TOL):
        out.append(f"qutrit-map point {lam[idx]}: correlated_bound {bound[idx]} below f {f[idx]}")
    # Any grid point with no more entropy is a feasible target, so its
    # fidelity is a lower bound on the correlated bound.
    ent_sorted, best = _entropy_capped_grid(ORACLE_RESOLUTION)
    ent = _entropy_bits(lam)
    pos = np.searchsorted(ent_sorted, ent - 1e-9, side="right") - 1
    grid_f = np.where(pos >= 0, (best[np.maximum(pos, 0)] + 1.0) / 4.0, 0.0)
    for idx in np.flatnonzero(bound < grid_f - FLOAT_TOL):
        out.append(f"qutrit-map point {lam[idx]}: correlated_bound {bound[idx]} below "
                   f"{grid_f[idx]}, reached on the grid at no more entropy")
    eps = 1.0 - threshold - margin
    target = teleport_target(3, eps)
    ranks = {int(r["M_required"]) for r, fv in zip(rows, f) if fv < threshold}
    for rank in ranks:
        out += smallest_rank_failures(3, rank, target, f"qutrit-map M_required={rank}")
    if len(ranks) > 1:
        out.append(f"qutrit-map: several M_required values {sorted(ranks)} for one target")
    for row, fv, bv in zip(rows, f, bound):
        if fv >= threshold:
            want = ("already_above", "already_above", 0)
        else:
            want = ("correlated_boostable" if bv >= threshold else "not_guaranteed",
                    "embezzling_boostable", int(row["M_required"]))
        got = (row["label_correlated"], row["label_embezzling"], int(row["M_required"]))
        if got != want or (fv < threshold and got[2] < 1):
            out.append(f"qutrit-map point {row['lambda1']},{row['lambda2']}: labels {got}, expected {want}")
    return out[:20]


CHECKS = {
    "fidelity": check_fidelity,
    "nmin": check_nmin,
    "montecarlo": check_montecarlo,
    "embezzle": check_embezzle,
    "consumption": check_consumption,
    "qutrit-map": check_qutrit_map,
    "distill": check_distill,
}


def check_operation(argv: list[str], csv_path: Path, data_dir: Path) -> list[str]:
    """All checks of one CLI call that exited 0: manifest digest, schema and content."""
    manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
    try:
        blob = csv_path.read_bytes()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{argv[0]}: unreadable output: {exc}"]
    digest = hashlib.sha256(blob).hexdigest()
    if manifest.get("csv_sha256") != digest:
        return [f"{argv[0]}: manifest csv_sha256 {manifest.get('csv_sha256')} != {digest}"]
    reader = csv.DictReader(io.StringIO(blob.decode("utf-8")))
    if tuple(reader.fieldnames or ()) != SCHEMAS[argv[0]]:
        return [f"{argv[0]}: header {reader.fieldnames}"]
    try:
        return CHECKS[argv[0]](list(reader), call_params(argv), data_dir)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{argv[0]}: malformed output: {type(exc).__name__}: {exc}"]
