"""Convex-split catalysis: catalyst construction, copy counts, and minimisation.

The catalyst is built from n-1 copies of a mixture tau = p phi+ + (1-p) zeta
with zeta full rank. Small instances are verified exactly on the n-copy
space; everything else works through the closed-form marginal
rho/n + (n-1) tau/n and the divergence-controlled error sqrt(2^k / n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, DomainError
from .qmat import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    SupportTolerance,
    max_relative_entropy,
    purified_distance,
)
from .qstates import SeededRng, max_entangled_density, maximally_mixed, random_flat_spectrum
from .teleport import entanglement_fraction

# Copy counts above this are reported as impractical rather than exact.
COPIES_CAP = 2**40

# Keep tau numerically full rank along the p sweep; paired with a support
# cutoff far below the smallest admissible tau eigenvalue.
_P_CEILING = 1.0 - 1e-6
_SWEEP_TOL = SupportTolerance(1e-13)

# The p search: a 1e-3 grid plus log-spaced points in 1 - p, then golden
# refinement; candidate blocks keep the grid's temporaries near 1 MB at d = 2.
_GRID_STEP, _LOG_POINTS, _REFINE_TOL = 1e-3, 160, 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_CANDIDATE_BLOCK = 8
_SECULAR_STEPS, _SECULAR_RTOL = 64, 4e-16


def _local_dim(rho: DensityMatrix, epsilon: float | None) -> int:
    """Local dimension of rho's square split, after checking epsilon lies in (0, 1)."""
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    da, db = rho.require_split()
    if da != db:
        raise DomainError(f"rho must live on a square split, got {da}x{db}")
    return da


def catalyst_mixture(zeta: DensityMatrix, p: float) -> DensityMatrix:
    """Mixture p phi+ + (1-p) zeta used as the single-copy catalyst factor."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"mixing weight p must lie in [0, 1), got {p}")
    da, db = zeta.require_split()
    if da != db:
        raise DomainError(f"zeta must live on a square split, got {da}x{db}")
    phi = max_entangled_density(da)
    mat = p * phi.mat + (1.0 - p) * zeta.mat
    return DensityMatrix._trusted(mat, split=(da, db))


def copies_for_fidelity(k: float, d: int, epsilon: float) -> int:
    """Copies needed for the average-fidelity guarantee: ceil(2^(k+2) d / (eps (d+1)))."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 0:
        raise DomainError(f"divergence k must be nonnegative, got {k}")
    return int(math.ceil(2.0 ** (k + 2) * d / (epsilon * (d + 1))))


def convex_split_marginal(rho: DensityMatrix, tau: DensityMatrix, n: int) -> DensityMatrix:
    """Post-protocol state on the original pair: rho/n + (n-1) tau/n."""
    if n < 1:
        raise DomainError(f"copy count must be >= 1, got {n}")
    if rho.dim != tau.dim:
        raise DomainError(f"dimension mismatch: {rho.dim} vs {tau.dim}")
    mat = rho.mat / n + (n - 1) * tau.mat / n
    return DensityMatrix._trusted(mat, split=rho.split or tau.split)


def convex_split_joint(rho: DensityMatrix, tau: DensityMatrix, n: int) -> tuple[DensityMatrix, float]:
    """Exact n-copy mixture (rho in a uniformly random slot) and its distance to tau^n.

    Materialises the full (dim)^n space, so only small instances are
    admissible; the returned scalar is the purified distance to the n-fold
    tau product, the quantity the divergence bound sqrt(2^k / n) controls.
    """
    if n < 1:
        raise DomainError(f"copy count must be >= 1, got {n}")
    if rho.dim != tau.dim:
        raise DomainError(f"dimension mismatch: {rho.dim} vs {tau.dim}")
    total = rho.dim**n
    if total > DEFAULT_DIM_CAP:
        raise CapacityExceeded(f"joint dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    layers = []
    for slot in range(n):
        factors = [tau.mat] * n
        factors[slot] = rho.mat
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        layers.append(acc)
    joint = DensityMatrix._trusted(sum(layers) / n)
    target = tau.mat
    for _ in range(n - 1):
        target = np.kron(target, tau.mat)
    dist = purified_distance(joint, DensityMatrix._trusted(target))
    return joint, dist


def consumption_bound(k: float, n: int) -> float:
    """Upper bound sqrt(2^k / n) on the catalyst change in purified distance."""
    if n < 1:
        raise DomainError(f"copy count must be >= 1, got {n}")
    return math.sqrt(2.0**k / n)


def min_copies_for_consumption(k: float, delta: float) -> int:
    """Smallest n keeping the catalyst change within delta: ceil(2^k / delta^2)."""
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    return int(math.ceil(2.0**k / (delta * delta)))


@dataclass(frozen=True)
class ConvexSplitCatalyst:
    """One-copy factor and copy count realising a fidelity target."""

    tau: DensityMatrix
    zeta: DensityMatrix
    p: float
    copies: int
    k: float
    epsilon: float

    def __post_init__(self):
        recon = catalyst_mixture(self.zeta, self.p).mat
        if float(np.max(np.abs(recon - self.tau.mat))) > 1e-10:
            raise DomainError("tau is not the declared mixture of phi+ and zeta")
        if not math.isfinite(self.k):
            raise DomainError("divergence k must be finite")


def teleport_catalyst_plan(
    rho: DensityMatrix, zeta: DensityMatrix, epsilon: float
) -> ConvexSplitCatalyst:
    """Catalyst achieving average fidelity >= 1 - epsilon on resource rho.

    Chooses the smallest admissible mixing weight
    p = 1 - eps (d+1) / (4 d (1 - F(zeta))), then the matching copy count.
    """
    d = _local_dim(rho, epsilon)
    one_minus_fz = 1.0 - entanglement_fraction(zeta)
    p = max(0.0, 1.0 - epsilon * (d + 1) / (4.0 * d * one_minus_fz))
    tau = catalyst_mixture(zeta, p)
    k = max_relative_entropy(rho, tau, _SWEEP_TOL)
    n = copies_for_fidelity(k, d, epsilon)
    return ConvexSplitCatalyst(tau=tau, zeta=zeta, p=p, copies=n, k=k, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Copy-count minimisation over the mixing weight p.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CopiesBudget:
    """Result of the copy-count minimisation for one candidate zeta."""

    n_min: int
    p_star: float
    impractical: bool = False


def _whitened_spectra(rho: DensityMatrix, zetas: list[DensityMatrix]):
    """Eigenvalues a of A = Z rho Z and weights w = |V^dagger Z phi+|^2, Z = zeta^(-1/2).

    lambda_min(tau) >= (1-p) lambda_min(zeta) and lambda_max(tau) <= 1 certify
    that tau(p) clears the support cutoff on the whole sweep; a zeta without
    that certificate is rejected.
    """
    lam, vec = np.linalg.eigh(np.stack([z.mat for z in zetas]))
    if not (1.0 - _P_CEILING) * lam[:, 0].min() > _SWEEP_TOL.eigen_cutoff:
        raise DomainError(f"zeta must be full rank, smallest eigenvalue {lam[:, 0].min():.3e}")
    z = (vec / np.sqrt(lam)[:, None, :]) @ np.conj(np.transpose(vec, (0, 2, 1)))
    amat = z @ rho.mat @ z
    a, v = np.linalg.eigh((amat + np.conj(np.transpose(amat, (0, 2, 1)))) / 2.0)
    u = z[:, :, :: zetas[0].split_a + 1].sum(axis=2) / math.sqrt(zetas[0].split_a)  # Z |phi+>
    return a, np.abs(np.einsum("kji,kj->ki", np.conj(v), u)) ** 2


def _lambda_max(a: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """lambda_max(rho, tau(p)) from whitened spectra a, w (K, n) at points p (K, P).

    tau(p) = Z^-1 ((1-p) I + p u u^dagger) Z^-1, so lambda_max = mu / (1-p) with
    mu the root in [a_(n-1), a_n] of the rank-one secular equation
    1 = p/(1-p) mu sum_i w_i / (a_i - mu) (Golub 1973; Bunch, Nielsen & Sorensen
    1978). Newton runs on y = 1/mu with the poles a_i, i < n, multiplied out;
    steps leaving the bracket bisect. Each point iterates on its own data only.
    """
    an, wn, a2 = a[:, -1:], w[:, -1:], a[:, -2:-1]
    with np.errstate(divide="ignore"):
        s = (1.0 - p) / p
        lo = np.broadcast_to(1.0 / an, p.shape)
        # A's top eigenvector's Rayleigh quotient a_n / (1 + w_n / s) bounds mu below; it
        # is the root itself when u is that eigenvector, so rounding must not cut it off.
        hi = np.minimum((1.0 + wn / s) / an * (1.0 + 1e-12), np.where(a2 > 0.0, 1.0 / a2, np.inf))
    y, done = lo.copy(), (p == 0.0) | ~(hi > lo)  # mu = a_n at p = 0
    s = np.where(done, 1.0, s)
    for _ in range(_SECULAR_STEPS):
        # g = (a_n y - 1) U - w_n V with V = prod_(i<n) (1 - a_i y) and
        # U = s V + sum_(i<n) w_i prod_(j<n, j != i) (1 - a_j y); dv, du are y-derivatives.
        vv, dv, uu, du = np.ones_like(y), np.zeros_like(y), s, np.zeros_like(y)
        for ak, wk in zip(a[:, :-1, None].transpose(1, 0, 2), w[:, :-1, None].transpose(1, 0, 2)):
            f = 1.0 - ak * y
            du = du * f - uu * ak + wk * dv
            uu = uu * f + wk * vv
            dv = dv * f - vv * ak
            vv = vv * f
        t = an * y - 1.0
        g = t * uu - wn * vv
        step = g / (an * uu + t * du - wn * dv)
        lo, hi = np.where(g < 0.0, y, lo), np.where(g > 0.0, y, hi)
        conv = (g == 0.0) | (np.abs(step) <= _SECULAR_RTOL * y)
        nxt = y - step
        nxt = np.where(conv | ((nxt > lo) & (nxt < hi)), nxt, 0.5 * (lo + hi))
        y = np.where(done | (g == 0.0), y, nxt)
        done |= conv
        if done.all():
            break
    return 1.0 / (y * (1.0 - p))


def _p_grid(p_lo: float) -> np.ndarray:
    """Linear grid over [p_lo, _P_CEILING] plus log-spaced points in 1 - p near p = 1."""
    grid = np.arange(p_lo, _P_CEILING, _GRID_STEP)
    log_hi = math.log10(max(1.0 - p_lo, 1e-6))
    log_grid = 1.0 - np.logspace(log_hi, math.log10(1.0 - _P_CEILING), _LOG_POINTS)
    grid = np.concatenate([grid, log_grid, [p_lo, _P_CEILING]])
    return np.unique(np.clip(grid, p_lo, _P_CEILING))


def _copies_budgets(
    rho: DensityMatrix, zetas: list[DensityMatrix], eps_slack: float
) -> list[CopiesBudget]:
    """Minimise ceil(2^k(p) / (eps_slack - sqrt((1-p)(1-F(zeta))))^2) over p, per candidate.

    The p-grid is scored in blocks of _CANDIDATE_BLOCK candidates; then every live
    candidate takes one golden-section step around its best grid point per
    array call. p_star is the smallest visited p reaching the fewest copies.
    """
    a, w = _whitened_spectra(rho, zetas)
    omf = np.array([max(0.0, 1.0 - entanglement_fraction(z)) for z in zetas])
    p_lo = np.where(omf <= eps_slack**2, 0.0, 1.0 - eps_slack**2 / np.maximum(omf, eps_slack**2))
    best_n = np.full(len(zetas), float(COPIES_CAP))  # integral counts, exact in float64
    best_p = np.full(len(zetas), _P_CEILING)
    centre = np.full(len(zetas), _P_CEILING)

    def score(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
        slack = eps_slack - np.sqrt((1.0 - p) * omf[rows, None])
        with np.errstate(divide="ignore"):
            values = np.where(slack > 0, _lambda_max(a[rows], w[rows], p) / slack**2, np.inf)
        n = np.where(values < COPIES_CAP, np.maximum(1.0, np.ceil(values)), COPIES_CAP)
        n, p = np.hstack([best_n[rows, None], n]), np.hstack([best_p[rows, None], p])
        best_n[rows] = n.min(axis=1)
        best_p[rows] = np.where(n == best_n[rows, None], p, np.inf).min(axis=1)
        return values

    live = np.flatnonzero(p_lo < _P_CEILING)
    for first in range(0, live.size, _CANDIDATE_BLOCK):
        rows = live[first : first + _CANDIDATE_BLOCK]
        grids = [_p_grid(float(p_lo[r])) for r in rows]
        # Each grid ends at _P_CEILING, so padding with it repeats a visited point.
        pts = np.full((rows.size, max(g.size for g in grids)), _P_CEILING)
        for i, g in enumerate(grids):
            pts[i, : g.size] = g
        centre[rows] = pts[np.arange(rows.size), np.argmin(score(rows, pts), axis=1)]

    lo, hi = np.maximum(p_lo, centre - _GRID_STEP), np.minimum(_P_CEILING, centre + _GRID_STEP)
    rows = live[hi[live] > lo[live]]
    lo, hi = lo[rows], hi[rows]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = score(rows, c[:, None])[:, 0], score(rows, d[:, None])[:, 0]
    while (on := hi - lo > _REFINE_TOL).any():
        rows, lo, hi, c, d, fc, fd = (x[on] for x in (rows, lo, hi, c, d, fc, fd))
        left = fc <= fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        x = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fx = score(rows, x[:, None])[:, 0]
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    best_p[best_n >= COPIES_CAP] = _P_CEILING
    return [CopiesBudget(int(n), float(p), bool(n >= COPIES_CAP)) for n, p in zip(best_n, best_p)]


def min_copies(rho: DensityMatrix, zeta: DensityMatrix, epsilon: float) -> CopiesBudget:
    """Fewest catalyst copies meeting the average-fidelity error epsilon.

    Searches the mixing weight p of tau = p phi+ + (1-p) zeta under the
    constraint sqrt(2^k / n) + sqrt(1 - F(tau)) <= sqrt(eps (d+1) / d);
    ties between equally good p values resolve toward the smaller p.
    """
    d = _local_dim(rho, epsilon)
    return _copies_budgets(rho, [zeta], math.sqrt(epsilon * (d + 1) / d))[0]


@dataclass(frozen=True)
class CatalystSearchQuery:
    """Randomised search setup: resource, error budget, candidate count, seed."""

    rho: DensityMatrix
    epsilon: float
    candidate_count: int
    rng: SeededRng
    eps_slack: float | None = field(default=None)

    def __post_init__(self):
        if self.candidate_count < 0:
            raise DomainError(f"candidate_count must be >= 0, got {self.candidate_count}")


@dataclass(frozen=True)
class CatalystSearchResult:
    n_best: int
    zeta_best: DensityMatrix
    p_best: float
    n_mixed: int
    p_mixed: float

    @property
    def ratio(self) -> float:
        return descent_ratio(self.n_mixed, self.n_best)


def min_copies_search(query: CatalystSearchQuery) -> CatalystSearchResult:
    """Best copy count over random full-rank candidates plus the mixed benchmark.

    Candidates are drawn from the flat-spectrum ensemble: heavy eigenvalue
    repulsion (Hilbert-Schmidt sampling) yields near-singular candidates
    that almost never beat the maximally mixed benchmark, while the flat
    ensemble reproduces the expected high improvement rate. The benchmark
    is always force-included, so the winner never exceeds it; ties resolve
    by (copy count, candidate index) with the benchmark ordered first.
    """
    d = _local_dim(query.rho, None if query.eps_slack is not None else query.epsilon)
    eps_slack = query.eps_slack
    if eps_slack is None:
        eps_slack = math.sqrt(query.epsilon * (d + 1) / d)
    zetas = [maximally_mixed(d * d, split=(d, d))] + [
        random_flat_spectrum(d * d, query.rng.derive(idx + 1), split=(d, d))
        for idx in range(query.candidate_count)
    ]
    budgets = _copies_budgets(query.rho, zetas, eps_slack)
    best = min(range(len(zetas)), key=lambda i: budgets[i].n_min)
    return CatalystSearchResult(
        budgets[best].n_min, zetas[best], budgets[best].p_star, budgets[0].n_min, budgets[0].p_star
    )


def descent_ratio(n_mixed: int, n_best: int) -> float:
    """Relative copy saving (n_mixed - n_best) / n_mixed."""
    if n_mixed < 1:
        raise DomainError(f"n_mixed must be >= 1, got {n_mixed}")
    return (n_mixed - n_best) / n_mixed
