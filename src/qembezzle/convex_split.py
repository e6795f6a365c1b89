"""Convex-split catalysis: catalyst construction, copy counts, and minimisation.

The catalyst is built from n-1 copies of a mixture tau = p phi+ + (1-p) zeta
with zeta full rank. Small instances are verified exactly on the n-copy
space; everything else works through the closed-form marginal
rho/n + (n-1) tau/n and the divergence-controlled error sqrt(2^k / n).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

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

_SECULAR_STEPS, _SECULAR_RTOL = 64, 4e-16

# Branch-and-bound over p: a bound is lowered by the relative _BOUND_RTOL before
# it may prune, so rounding in lambda_max, its slope and the slack (below 1e-14
# relative against 30-digit evaluations) never cuts off the true minimum. An
# interval narrower than _WIDTH_FLOOR ends without that proof, which can happen
# once a count nears 1/_BOUND_RTOL copies.
_BOUND_RTOL, _WIDTH_FLOOR = 1e-12, 1e-12


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
    """Result of the copy-count minimisation for one candidate zeta.

    certified is False when an interval of the search reached the width floor
    before its bound could rule it out.
    """

    n_min: int
    p_star: float
    impractical: bool = False
    certified: bool = True


@dataclass(frozen=True)
class SearchCounters:
    """Work of copy-count searches: lambda_max points, array rounds, uncertified candidates."""

    lambda_max_points: int = 0
    rounds: int = 0
    uncertified_candidates: int = 0

    def __add__(self, other: SearchCounters) -> SearchCounters:
        return SearchCounters(*(x + y for x, y in zip(astuple(self), astuple(other))))


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


def _log_lambda_slope(a: np.ndarray, w: np.ndarray, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """d log lambda_max / dp at points p (K,), one per row of a, w, from lambda = lam.

    The root mu = (1-p) lambda solves (1-p)/p = h(mu) - sum_i w_i with
    h(mu) = sum_i w_i a_i / (a_i - mu), so mu' = -1 / (p^2 h'(mu)) and
    d log lambda/dp = 1/(1-p) - 1/(p^2 mu h'(mu)); no eigenvector is needed.
    Terms with w_i a_i = 0 drop out of h', and if none is left mu = a_n for
    every p. A root on a pole (a degenerate top eigenvalue) makes h' infinite
    and mu' zero. At p = 0 the formula reads 0 * inf; its limit 1 - w_n for a
    simple top eigenvalue never exceeds the right derivative, which is all a
    tangent at the left end of the sweep needs.
    """
    mu = lam * (1.0 - p)
    wa = w * a
    with np.errstate(divide="ignore", invalid="ignore"):
        hp = np.where(wa > 0.0, wa / (a - mu[:, None]) ** 2, 0.0).sum(axis=1)
        drift = np.where(hp > 0.0, 1.0 / (p * p * mu * hp), 0.0)
    return np.where(p > 0.0, 1.0 / (1.0 - p) - drift, 1.0 - w[:, -1])


def _log_slack_penalty(c: np.ndarray, e: float, p: np.ndarray) -> np.ndarray:
    """-2 log(e - sqrt((1-p) c)), infinite where the slack is not positive."""
    slack = e - np.sqrt((1.0 - p) * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slack > 0.0, -2.0 * np.log(slack), np.inf)


def _interval_bound(c, e, p1, p2, l1, l2, g1, g2) -> np.ndarray:
    """Lower bound on log(lambda_max / slack^2) over each interval [p1, p2].

    l, g are log lambda_max and its slope at the ends. log lambda_max is
    convex in p (1/lambda_max is a minimum of functions affine in p), so it
    lies above both end tangents: the one at p1 left of a split point x and
    the one at p2 right of it. Any x is valid; the tangents' crossing is the
    tightest. Each tangent plus -2 log slack is then minimised exactly on its
    piece: with r = sqrt(1-p), its p-derivative g - sqrt(c) / (r (e - sqrt(c) r))
    turns from negative to positive only at the larger root r of
    sqrt(c) g r^2 - g e r + sqrt(c) = 0, so the minimum is at an end of the piece or there.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.clip(p1 + (l1 - l2 + g2 * (p2 - p1)) / (g2 - g1), p1, p2)
    x = np.where(np.isnan(x), p1, x)

    def piece(lo, hi, p0, l0, g):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (e + np.sqrt(e * e - 4.0 * c / g)) / (2.0 * np.sqrt(c))
        q = np.clip(np.where((g > 0.0) & np.isfinite(r), 1.0 - r * r, hi), lo, hi)
        values = [l0 + g * (t - p0) + _log_slack_penalty(c, e, t) for t in (lo, hi, q)]
        return np.min(values, axis=0)

    return np.minimum(piece(p1, x, p1, l1, g1), piece(x, p2, p2, l2, g2))


def _copies_budgets(
    rho: DensityMatrix, zetas: list[DensityMatrix], eps_slack: float
) -> tuple[int, CopiesBudget, CopiesBudget, SearchCounters]:
    """Certified minimum of n(p) = ceil(lambda_max(p) / (eps_slack - sqrt((1-p)(1-F(zeta))))^2).

    Returns the index of the winning candidate (fewest copies, lowest index on
    ties), the budgets of zetas[0] and of the winner, and the work counters.

    One branch-and-bound runs over (candidate, p-interval) pairs in lockstep,
    starting from [p_lo, _P_CEILING] with its ends evaluated. Each round drops
    every interval whose bound (see _interval_bound) proves that no p in it
    gives fewer copies than its candidate's incumbent; for a candidate i >= 1
    it also drops intervals that can neither beat the best incumbent of the
    candidates before i nor tie the best of those after it, since such an
    interval cannot change the reported winner. zetas[0] is minimised in full.
    The rest are bisected, with every new point evaluated in one array call.
    p_star is the smallest evaluated p reaching the candidate's count.
    """
    a, w = _whitened_spectra(rho, zetas)
    c = np.array([max(0.0, 1.0 - entanglement_fraction(z)) for z in zetas])
    e = eps_slack
    p_lo = np.where(c <= e * e, 0.0, 1.0 - e * e / np.maximum(c, e * e))
    best_n = np.full(len(zetas), float(COPIES_CAP))  # integral counts, exact in float64
    best_p = np.full(len(zetas), _P_CEILING)
    uncertified = np.zeros(len(zetas), dtype=bool)
    counters = SearchCounters()

    def evaluate(rows, p):
        nonlocal counters
        counters += SearchCounters(p.size, 1)
        lam = _lambda_max(a[rows], w[rows], p[:, None])[:, 0]
        slack = e - np.sqrt((1.0 - p) * c[rows])
        with np.errstate(divide="ignore"):
            value = np.where(slack > 0, lam / slack**2, np.inf)
        n = np.where(value < COPIES_CAP, np.maximum(1.0, np.ceil(value)), COPIES_CAP)
        before = best_n.copy()
        np.minimum.at(best_n, rows, n)
        best_p[best_n < before] = np.inf
        hit = n == best_n[rows]
        np.minimum.at(best_p, rows[hit], p[hit])
        return np.log(lam), _log_lambda_slope(a[rows], w[rows], p, lam)

    rows = np.flatnonzero(p_lo < _P_CEILING)
    p1, p2 = p_lo[rows], np.full(rows.size, _P_CEILING)
    ends = evaluate(np.tile(rows, 2), np.concatenate([p1, p2]))
    (l1, l2), (g1, g2) = (np.split(x, 2) for x in ends)
    while rows.size:
        prior = np.minimum.accumulate(np.concatenate([[np.inf], best_n[:-1]]))
        later = np.minimum.accumulate(np.concatenate([best_n[:0:-1], [np.inf]]))[::-1]
        threshold = np.minimum(best_n, np.minimum(prior, later + 1.0))
        threshold[0] = best_n[0]
        bound = _interval_bound(c[rows], e, p1, p2, l1, l2, g1, g2)
        with np.errstate(over="ignore"):
            live = np.ceil(np.exp(bound - _BOUND_RTOL)) < threshold[rows]
        floor = live & (p2 - p1 < _WIDTH_FLOOR)
        uncertified[rows[floor]] = True
        live &= ~floor
        rows, p1, p2, l1, l2, g1, g2 = (x[live] for x in (rows, p1, p2, l1, l2, g1, g2))
        if not rows.size:
            break
        mid = 0.5 * (p1 + p2)
        lm, gm = evaluate(rows, mid)
        rows, p1, p2 = np.tile(rows, 2), np.concatenate([p1, mid]), np.concatenate([mid, p2])
        l1, l2 = np.concatenate([l1, lm]), np.concatenate([lm, l2])
        g1, g2 = np.concatenate([g1, gm]), np.concatenate([gm, g2])

    best_p[best_n >= COPIES_CAP] = _P_CEILING
    best = int(np.argmin(best_n))
    counters += SearchCounters(uncertified_candidates=int(uncertified.sum()))

    def budget(i):
        return CopiesBudget(int(best_n[i]), float(best_p[i]), bool(best_n[i] >= COPIES_CAP),
                            not uncertified[i])

    return best, budget(0), budget(best), counters


def min_copies(rho: DensityMatrix, zeta: DensityMatrix, epsilon: float) -> CopiesBudget:
    """Fewest catalyst copies meeting the average-fidelity error epsilon.

    Minimises over the mixing weight p of tau = p phi+ + (1-p) zeta under the
    constraint sqrt(2^k / n) + sqrt(1 - F(tau)) <= sqrt(eps (d+1) / d). The
    count is a certified minimum over p; p_star is the smallest p the search
    evaluated that reaches it, not necessarily the smallest p that does.
    """
    d = _local_dim(rho, epsilon)
    return _copies_budgets(rho, [zeta], math.sqrt(epsilon * (d + 1) / d))[1]


def optimal_copies(rho: DensityMatrix, eps_slack: float) -> tuple[int, float, float]:
    """Fewest copies over every convex-split catalyst, as (n_opt, t_star, p_star).

    rho <= t tau forces t (1 - F(tau)) >= c = 1 - F(rho), so any tau needs at
    least t / (eps_slack - sqrt(c/t))^2 copies at t = 2^D_max(rho||tau). That
    is smallest at t_star = max(1, 4c / eps_slack^2), and tau = p phi+ + (1-p) rho
    with p_star = 1 - 1/t_star reaches it. n_opt is capped at COPIES_CAP like
    the search.
    """
    _local_dim(rho, None)
    c = max(0.0, 1.0 - entanglement_fraction(rho))
    t = max(1.0, 4.0 * c / eps_slack**2)
    value = t / (eps_slack - math.sqrt(c / t)) ** 2
    return min(COPIES_CAP, max(1, math.ceil(value))), t, 1.0 - 1.0 / t


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
    counters: SearchCounters

    @property
    def ratio(self) -> float:
        return descent_ratio(self.n_mixed, self.n_best)


def min_copies_search(query: CatalystSearchQuery) -> CatalystSearchResult:
    """Best copy count over random full-rank candidates plus the mixed benchmark.

    Candidates are drawn from the flat-spectrum ensemble: Hilbert-Schmidt
    sampling repels eigenvalues and yields near-singular candidates that
    almost never beat the maximally mixed benchmark. Flat-spectrum candidates
    beat it often, but still need well above optimal_copies' floor. The
    benchmark is always force-included, so the winner never exceeds it; ties
    resolve by (copy count, candidate index) with the benchmark ordered first.
    Only the benchmark and the winner are minimised in full.
    """
    d = _local_dim(query.rho, None if query.eps_slack is not None else query.epsilon)
    eps_slack = query.eps_slack
    if eps_slack is None:
        eps_slack = math.sqrt(query.epsilon * (d + 1) / d)
    zetas = [maximally_mixed(d * d, split=(d, d))] + [
        random_flat_spectrum(d * d, query.rng.derive(idx + 1), split=(d, d))
        for idx in range(query.candidate_count)
    ]
    best, mixed, winner, counters = _copies_budgets(query.rho, zetas, eps_slack)
    return CatalystSearchResult(
        winner.n_min, zetas[best], winner.p_star, mixed.n_min, mixed.p_star, counters
    )


def descent_ratio(n_mixed: int, n_best: int) -> float:
    """Relative copy saving (n_mixed - n_best) / n_mixed."""
    if n_mixed < 1:
        raise DomainError(f"n_mixed must be >= 1, got {n_mixed}")
    return (n_mixed - n_best) / n_mixed
