"""Convex-split catalysis: mixtures, copy counts, joint states, minimisation."""

import math

import mpmath as mp
import numpy as np
import pytest

from qembezzle import (
    CatalystSearchQuery,
    DensityMatrix,
    DomainError,
    SeededRng,
    ShapeError,
    catalyst_mixture,
    consumption_bound,
    convex_split_joint,
    convex_split_marginal,
    convex_split_plan,
    descent_ratio,
    entanglement_fraction,
    max_entangled_density,
    maximally_mixed,
    max_relative_entropy,
    min_copies,
    min_copies_search,
    purified_distance,
    random_density,
    random_flat_spectrum,
    random_full_rank,
    random_pure,
    Task,
    average_fidelity_from_fraction,
)
from qembezzle import convex_split
from qembezzle.convex_split import (
    COPIES_CAP,
    _copies_budgets,
    _lambda_max,
    _log_lambda_slope,
    _whitened_spectra,
)


I4 = maximally_mixed(4, split=(2, 2))


class TestMixture:
    def test_p_zero_returns_zeta(self):
        zeta = random_full_rank(4, SeededRng(1), split=(2, 2))
        np.testing.assert_allclose(catalyst_mixture(zeta, 0.0).mat, zeta.mat, atol=1e-15)

    def test_fraction_is_affine(self):
        tau = catalyst_mixture(I4, 0.9)
        assert abs(entanglement_fraction(tau) - 0.925) < 1e-10

    def test_defect_identity_on_grid(self):
        zeta = random_full_rank(4, SeededRng(2), split=(2, 2))
        fz = entanglement_fraction(zeta)
        for p in np.linspace(0.0, 0.99, 12):
            tau = catalyst_mixture(zeta, float(p))
            lhs = 1.0 - entanglement_fraction(tau)
            assert abs(lhs - (1 - p) * (1 - fz)) < 1e-10

    def test_rejects_p_one(self):
        with pytest.raises(DomainError):
            catalyst_mixture(I4, 1.0)


class TestCopyCounts:
    def test_direct_arithmetic(self):
        # n = ceil(2^(k+2) / delta), delta = eps (d+1)/d for teleportation and eps for distillation.
        assert Task.TELEPORT.budget(0.1, 2) == 0.1 * 3 / 2 and Task.DISTILL.budget(0.1, 2) == 0.1
        for d in (2, 3):
            rho = random_density(d * d, SeededRng(30 + d), split=(d, d))
            zeta = maximally_mixed(d * d, split=(d, d))
            tele = convex_split_plan(rho, zeta, 0.1, Task.TELEPORT)
            assert tele.copies == math.ceil(2.0 ** (tele.k + 2) * d / (0.1 * (d + 1)))
            dist = convex_split_plan(rho, zeta, 0.1, Task.DISTILL)
            assert dist.copies == math.ceil(2.0 ** (dist.k + 2) / 0.1)

    def test_monotone_in_epsilon(self):
        rho = random_density(4, SeededRng(32), split=(2, 2))
        values = [
            convex_split_plan(rho, I4, float(eps), Task.TELEPORT).copies
            for eps in np.linspace(0.02, 0.5, 20)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_consumption_examples(self):
        assert abs(consumption_bound(2.0, 32) - math.sqrt(0.125)) < 1e-12

    def test_consumption_decreasing_in_n(self):
        vals = [consumption_bound(1.0, n) for n in range(1, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMarginal:
    def test_single_copy_is_input(self):
        rho = random_density(4, SeededRng(3), split=(2, 2))
        np.testing.assert_allclose(convex_split_marginal(rho, I4, 1).mat, rho.mat)

    def test_two_copies_average(self):
        rho = random_density(4, SeededRng(4), split=(2, 2))
        tau = catalyst_mixture(I4, 0.5)
        got = convex_split_marginal(rho, tau, 2).mat
        np.testing.assert_allclose(got, (rho.mat + tau.mat) / 2, atol=1e-15)

    def test_rejects_zero_copies(self):
        with pytest.raises(DomainError):
            convex_split_marginal(random_density(4, SeededRng(5), split=(2, 2)), I4, 0)

    def test_fraction_bound_under_plan(self):
        for seed in range(10):
            rho = random_density(4, SeededRng(600 + seed), split=(2, 2))
            for eps in (0.05, 0.1, 0.2):
                plan = convex_split_plan(rho, I4, eps, Task.TELEPORT)
                marg = convex_split_marginal(rho, plan.tau, plan.copies)
                assert entanglement_fraction(marg) >= 1 - eps * 3 / 2


class TestExactJoint:
    def test_identical_layers_give_zero_distance(self):
        tau = random_full_rank(4, SeededRng(6), split=(2, 2))
        _, dist = convex_split_joint(tau, tau, 2)
        assert dist < 1e-6

    def test_divergence_bound_holds(self):
        for seed in range(30):
            rho = random_density(4, SeededRng(seed), split=(2, 2))
            tau = random_full_rank(4, SeededRng(10_000 + seed), split=(2, 2))
            k = max_relative_entropy(rho, tau)
            for n in (2, 3):
                _, dist = convex_split_joint(rho, tau, n)
                assert dist <= consumption_bound(k, n) + 1e-9

    def test_monotone_in_copies(self):
        for seed in range(100):
            rho = random_density(4, SeededRng(seed), split=(2, 2))
            tau = random_full_rank(4, SeededRng(50_000 + seed), split=(2, 2))
            _, d2 = convex_split_joint(rho, tau, 2)
            _, d3 = convex_split_joint(rho, tau, 3)
            assert d3 <= d2 + 1e-9

    def test_capacity_cap(self):
        from qembezzle import CapacityExceeded

        rho = random_density(4, SeededRng(7), split=(2, 2))
        with pytest.raises(CapacityExceeded):
            convex_split_joint(rho, I4, 8)

    def test_marginal_consistent_with_joint(self):
        # Tracing the joint back to one pair reproduces the closed form, so
        # the data-processing inequality links the two distances.
        phi = max_entangled_density(2)
        for seed in range(20):
            rho = random_density(4, SeededRng(seed), split=(2, 2))
            tau = random_full_rank(4, SeededRng(7000 + seed), split=(2, 2))
            for n in (2, 3):
                joint, _ = convex_split_joint(rho, tau, n)
                target = phi.mat
                for _ in range(n - 1):
                    target = np.kron(target, tau.mat)
                from qembezzle.qmat import DensityMatrix

                p_joint = purified_distance(joint, DensityMatrix._trusted(target))
                p_marg = purified_distance(convex_split_marginal(rho, tau, n), phi)
                assert p_marg <= p_joint + 1e-9


def _oracle_objective(rho, zeta, eps_slack, p):
    """Copy-count surrogate lambda_max / slack^2 from dense eigensolves of tau(p)."""
    phi = max_entangled_density(zeta.split_a).mat
    one_minus_fz = max(0.0, 1.0 - entanglement_fraction(zeta))
    p = np.asarray(p, dtype=float)
    taus = p[:, None, None] * phi + (1.0 - p)[:, None, None] * zeta.mat
    w, v = np.linalg.eigh(taus)
    slack = eps_slack - np.sqrt((1.0 - p) * one_minus_fz)
    ok = (w[:, 0] > 1e-13 * w[:, -1]) & (slack > 0)
    out = np.full(p.shape, np.inf)
    inv_sqrt = (v[ok] / np.sqrt(w[ok])[:, None, :]) @ np.conj(np.transpose(v[ok], (0, 2, 1)))
    out[ok] = np.linalg.eigvalsh(inv_sqrt @ rho.mat @ inv_sqrt)[:, -1] / slack[ok] ** 2
    return out


def _oracle_golden(f, lo, hi, tol):
    """Scalar golden-section search; returns every (p, f(p)) it visits."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    visited = [(c, fc), (d, fd)]
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
            visited.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
            visited.append((d, fd))
    return visited


def _oracle_ceil(g):
    if not math.isfinite(g) or g >= COPIES_CAP:
        return COPIES_CAP
    return max(1, int(math.ceil(g)))


def dense_grid_oracle(rho, zeta, epsilon, points=10_000):
    """Reference minimiser: dense linear + log grid plus golden polish.

    Shares no code with the production search: lambda_max comes from an
    eigendecomposition of tau^(-1/2) rho tau^(-1/2) at every point.
    """
    eps_slack = math.sqrt(epsilon * 3 / 2)
    one_minus_fz = max(0.0, 1.0 - entanglement_fraction(zeta))
    p_lo = 0.0 if one_minus_fz <= eps_slack**2 else 1.0 - eps_slack**2 / one_minus_fz
    p_hi = 1 - 1e-6
    if p_lo >= p_hi:
        return COPIES_CAP
    lin = np.linspace(p_lo, p_hi, points)
    log = 1.0 - np.logspace(np.log10(max(1 - p_lo, 1e-6)), -6, 2000)
    grid = np.clip(np.unique(np.concatenate([lin, log])), p_lo, p_hi)
    vals = _oracle_objective(rho, zeta, eps_slack, grid)
    best = int(np.argmin(vals))
    lo = max(p_lo, grid[best] - 2 * (p_hi - p_lo) / points)
    hi = min(p_hi, grid[best] + 2 * (p_hi - p_lo) / points)
    polish = _oracle_golden(
        lambda p: float(_oracle_objective(rho, zeta, eps_slack, [p])[0]), lo, hi, 1e-7
    )
    visited = list(zip(grid.tolist(), vals.tolist())) + polish
    return min(_oracle_ceil(g) for _, g in visited)


class TestMinCopies:
    def test_trivial_resource_with_loose_budget(self):
        # A perfect resource needs no catalyst once the budget slack
        # exceeds one copy's worth of divergence.
        phi = max_entangled_density(2)
        result = min_copies(phi, I4, 0.8)
        assert result.n_min == 1
        assert result.n_min == dense_grid_oracle(phi, I4, 0.8)

    def test_matches_dense_grid_oracle(self):
        for trial in range(50):
            rho = random_density(4, SeededRng(500 + trial), split=(2, 2))
            zeta = random_full_rank(4, SeededRng(900 + trial), split=(2, 2))
            eps = (0.05, 0.1, 0.2)[trial % 3]
            got = min_copies(rho, zeta, eps)
            assert got.n_min == dense_grid_oracle(rho, zeta, eps), trial

    def test_constraint_holds_at_reported_point(self):
        for trial in range(10):
            rho = random_density(4, SeededRng(40 + trial), split=(2, 2))
            zeta = random_full_rank(4, SeededRng(80 + trial), split=(2, 2))
            eps = 0.1
            res = min_copies(rho, zeta, eps)
            tau = catalyst_mixture(zeta, res.p_star)
            k = max_relative_entropy(rho, tau)
            slack = math.sqrt(eps * 3 / 2)
            lhs = math.sqrt(2.0**k / res.n_min) + math.sqrt(
                max(0.0, 1 - entanglement_fraction(tau))
            )
            assert lhs <= slack + 1e-7

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            min_copies(random_density(4, SeededRng(1), split=(2, 2)), I4, 1.0)

    def test_zeta_split_must_match(self):
        rho = random_density(4, SeededRng(1), split=(2, 2))
        for zeta in (maximally_mixed(4), maximally_mixed(9, split=(3, 3))):
            with pytest.raises(ShapeError):
                min_copies(rho, zeta, 0.1)


def _mp_lambda_max(rho, zeta, p, dps=40):
    """Reference lambda_max of tau^(-1/2) rho tau^(-1/2) from 40-digit eigendecompositions."""
    d = zeta.split_a
    phi = max_entangled_density(d).mat
    with mp.workdps(dps):
        # tau is formed in extended precision, so p = 1 - 1e-6 loses nothing to rounding.
        tau = mp.mpf(p) * mp.matrix(phi.tolist()) + (1 - mp.mpf(p)) * mp.matrix(zeta.mat.tolist())
        evals, evecs = mp.eighe(tau)
        inv_sqrt = evecs * mp.diag([1 / mp.sqrt(e) for e in evals]) * evecs.H
        pivot = inv_sqrt * mp.matrix(rho.mat.tolist()) * inv_sqrt
        return float(max(mp.eighe((pivot + pivot.H) / 2, eigvals_only=True)))


def _resource(kind, d, seed):
    if kind == "mixed":
        return random_density(d * d, SeededRng(seed), split=(d, d))
    if kind == "pure":
        return random_pure(d * d, SeededRng(seed)).density().with_split(d, d)
    return max_entangled_density(d)


def _catalyst(kind, d, seed):
    if kind == "mixed":
        return maximally_mixed(d * d, split=(d, d))
    return DensityMatrix(random_flat_spectrum(d * d, [SeededRng(seed)])[0], d, d)


class TestSecularEvaluator:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rho_kind", ["mixed", "pure", "phi+"])
    @pytest.mark.parametrize("zeta_kind", ["mixed", "flat"])
    def test_matches_extended_precision_eigh(self, d, rho_kind, zeta_kind):
        rho = _resource(rho_kind, d, 31 + d)
        zeta = _catalyst(zeta_kind, d, 77 + d)
        a, w = _whitened_spectra(rho, zeta.mat[None])
        ps = [0.0, 0.637, 1 - 1e-6]
        got = _lambda_max(a, w, np.array([ps]))[0]
        for p, value in zip(ps, got):
            want = _mp_lambda_max(rho, zeta, p)
            assert abs(value - want) <= 1e-12 * want, (p, value, want)

    def test_rank_deficient_zeta_rejected(self):
        rho = random_density(4, SeededRng(8), split=(2, 2))
        zeta = random_pure(4, SeededRng(9)).density().with_split(2, 2)
        with pytest.raises(DomainError):
            min_copies(rho, zeta, 0.1)


def _dense_log_lambda(rho, zeta, p):
    """log lambda_max(tau(p)^(-1/2) rho tau(p)^(-1/2)) from dense eigensolves, at points p."""
    phi = max_entangled_density(zeta.split_a).mat
    p = np.asarray(p, dtype=float)
    w, v = np.linalg.eigh(p[:, None, None] * phi + (1.0 - p)[:, None, None] * zeta.mat)
    inv_sqrt = (v / np.sqrt(w)[:, None, :]) @ np.conj(np.transpose(v, (0, 2, 1)))
    return np.log(np.linalg.eigvalsh(inv_sqrt @ rho.mat @ inv_sqrt)[:, -1])


def _dense_log_objective(rho, zeta, eps_slack, p):
    """log(lambda_max / slack^2) from dense eigensolves; +inf where the slack is not positive."""
    slack = eps_slack - np.sqrt((1.0 - p) * max(0.0, 1.0 - entanglement_fraction(zeta)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slack > 0, _dense_log_lambda(rho, zeta, p) - 2 * np.log(slack), np.inf)


def _dense_p(lo, hi, points):
    """Linear points over [lo, hi] plus log-spaced points in 1 - p near hi."""
    log = 1.0 - np.logspace(np.log10(1.0 - lo), np.log10(1.0 - hi), points // 2)
    return np.unique(np.clip(np.concatenate([np.linspace(lo, hi, points - points // 2), log]), lo, hi))


def _recorded(monkeypatch, name):
    """Record (arguments, result) of every call of convex_split.<name> while the test runs."""
    calls, original = [], getattr(convex_split, name)

    def wrapper(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(convex_split, name, wrapper)
    return calls


CERTIFICATE_CASES = [
    (d, rho_kind, zeta_kind)
    for d in (2, 3)
    for rho_kind in ("mixed", "pure", "phi+")
    for zeta_kind in ("mixed", "flat")
]


class TestCertificate:
    @pytest.mark.parametrize("d, rho_kind, zeta_kind", CERTIFICATE_CASES)
    def test_slope_is_a_subgradient(self, d, rho_kind, zeta_kind, monkeypatch):
        rho = _resource(rho_kind, d, 51 + d)
        zeta = _catalyst(zeta_kind, d, 93 + d)
        calls = _recorded(monkeypatch, "_lambda_max")
        min_copies(rho, zeta, 0.1)
        a, w = _whitened_spectra(rho, zeta.mat[None])
        evaluated = np.concatenate([np.ravel(args[2]) for args, _ in calls])
        ps = np.unique(np.concatenate([[0.0, 0.3], evaluated]))
        lam = _lambda_max(np.repeat(a, ps.size, 0), np.repeat(w, ps.size, 0), ps[:, None])[:, 0]
        slope = _log_lambda_slope(np.repeat(a, ps.size, 0), np.repeat(w, ps.size, 0), ps, lam)
        q = _dense_p(0.0, 1 - 1e-6, 2000)
        dense = _dense_log_lambda(rho, zeta, q)
        for p, l0, g in zip(ps, np.log(lam), slope):
            tangent = l0 + g * (q - p)
            worst = int(np.argmax(tangent - dense))
            assert tangent[worst] <= dense[worst] + 1e-9, (p, q[worst], tangent[worst], dense[worst])

    @pytest.mark.parametrize("d, rho_kind, zeta_kind", CERTIFICATE_CASES)
    @pytest.mark.parametrize("eps", [0.02, 0.3])
    def test_interval_bound_below_dense_objective(self, d, rho_kind, zeta_kind, eps, monkeypatch):
        rho = _resource(rho_kind, d, 61 + d)
        zeta = _catalyst(zeta_kind, d, 17 + d)
        eps_slack = math.sqrt(eps * (d + 1) / d)
        calls = _recorded(monkeypatch, "_interval_bound")
        min_copies(rho, zeta, eps)
        searched = [iv for args, bound in calls for iv in zip(args[2], args[3], bound)]
        assert searched
        # Also every interval between two of 12 points spread over the feasible band.
        c = max(0.0, 1.0 - entanglement_fraction(zeta))
        p_lo = max(0.0, 1.0 - eps_slack**2 / c)
        ends = _dense_p(p_lo, 1 - 1e-6, 12)
        p1, p2 = (x.ravel() for x in np.meshgrid(ends, ends, indexing="ij"))
        p1, p2 = p1[p1 < p2], p2[p1 < p2]
        a, w = _whitened_spectra(rho, zeta.mat[None])
        ls, gs = [], []
        for p in (p1, p2):
            lam = _lambda_max(np.repeat(a, p.size, 0), np.repeat(w, p.size, 0), p[:, None])[:, 0]
            ls.append(np.log(lam))
            gs.append(_log_lambda_slope(np.repeat(a, p.size, 0), np.repeat(w, p.size, 0), p, lam))
        bound = convex_split._interval_bound(np.full(p1.size, c), eps_slack, p1, p2, *ls, *gs)
        for lo, hi, b in searched + list(zip(p1, p2, bound)):
            dense = _dense_log_objective(rho, zeta, eps_slack, _dense_p(lo, hi, 200))
            assert b <= dense.min() + 1e-9, (lo, hi, b, dense.min())

    @pytest.mark.parametrize("g", [-3.0, 0.0, 10.0, 40.0, 400.0])
    @pytest.mark.parametrize("c", [0.0, 0.5, 0.9])
    def test_bound_is_the_minimum_for_a_linear_log_lambda(self, c, g):
        # With log lambda = 0.7 + g p both tangents are the line itself, so the
        # bound must be the minimum of line - 2 log slack over the interval.
        e = 0.3
        p_lo = max(0.0, 1.0 - e * e / c) if c else 0.0
        ends = np.unique(np.maximum(p_lo + 1e-3, [0.0, 0.83, 0.875, 0.95, 1 - 1e-6]))
        p1, p2 = (x.ravel() for x in np.meshgrid(ends, ends, indexing="ij"))
        p1, p2 = p1[p1 < p2], p2[p1 < p2]
        line = lambda p: 0.7 + g * p
        gs = np.full(p1.size, g)
        bound = convex_split._interval_bound(
            np.full(p1.size, c), e, p1, p2, line(p1), line(p2), gs, gs
        )
        for lo, hi, b in zip(p1, p2, bound):
            q = np.linspace(lo, hi, 100_001)
            dense = line(q) - 2 * np.log(e - np.sqrt((1 - q) * c))
            assert dense.min() - 1e-6 <= b <= dense.min() + 1e-12, (lo, hi, b, dense.min())

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [0.002, 0.05, 0.2, 0.5])
    def test_pruned_search_matches_separate_minima(self, d, eps):
        # Replaces the block-size test: pruning across candidates must not change
        # what the search reports.
        rho = random_density(d * d, SeededRng(41 + d), split=(d, d))
        rng = SeededRng(300 + d)
        res = min_copies_search(
            CatalystSearchQuery(rho=rho, epsilon=eps, candidate_count=20, rng=rng)
        )
        zetas = [maximally_mixed(d * d, split=(d, d))] + [
            DensityMatrix(z, d, d)
            for z in random_flat_spectrum(d * d, [rng.derive(i + 1) for i in range(20)])
        ]
        alone = [min_copies(rho, z, eps) for z in zetas]
        best = min(range(len(zetas)), key=lambda i: alone[i].n_min)
        assert (res.n_best, res.n_mixed) == (alone[best].n_min, alone[0].n_min)
        np.testing.assert_array_equal(res.zeta_best.mat, zetas[best].mat)
        assert res.counters.uncertified_candidates == 0 and all(b.certified for b in alone)

    def test_ties_go_to_the_lower_index(self):
        # Candidates 3, 6 and 14 all need 23 copies, and a later one reaches 23 first.
        rho = random_density(4, SeededRng(10), split=(2, 2))
        flats = random_flat_spectrum(4, [SeededRng(10_000 + i) for i in range(30)])
        zetas = np.concatenate([I4.mat[None], flats])
        eps_slack = math.sqrt(0.7 * 3 / 2)
        alone = [min_copies(rho, DensityMatrix(z, 2, 2), 0.7).n_min for z in zetas]
        tied = [i for i, n in enumerate(alone) if n == min(alone)]
        assert len(tied) > 1 and tied[0] > 0
        best, mixed, win, counters = _copies_budgets(rho, zetas, eps_slack)
        assert (best, win.n_min, mixed.n_min) == (tied[0], alone[tied[0]], alone[0])
        assert counters.uncertified_candidates == 0
        # Copies of the winner, and of the benchmark, after the original: the first wins.
        best, _, win, _ = _copies_budgets(rho, zetas[[*range(tied[0] + 1), tied[0]]], eps_slack)
        assert (best, win.n_min) == (tied[0], alone[tied[0]])
        best, _, win, _ = _copies_budgets(rho, np.stack([I4.mat, I4.mat]), eps_slack)
        assert (best, win.n_min) == (0, alone[0])

    def test_impractical_case_ends(self):
        rho = random_density(4, SeededRng(5), split=(2, 2))
        eps_slack = math.sqrt(1e-6 * 3 / 2)
        flats = random_flat_spectrum(4, [SeededRng(600 + i) for i in range(5)])
        zetas = np.concatenate([I4.mat[None], flats])
        best, mixed, win, counters = _copies_budgets(rho, zetas, eps_slack)
        assert mixed.impractical and win.impractical and win.n_min == COPIES_CAP
        assert mixed.p_star == 1 - 1e-6
        assert mixed.certified and counters.uncertified_candidates == 0
        assert counters.rounds <= 50

    def test_width_floor_ends_uncertified(self, monkeypatch):
        rho = random_density(4, SeededRng(5), split=(2, 2))
        certified = min_copies(rho, I4, 0.01)
        monkeypatch.setattr(convex_split, "_WIDTH_FLOOR", 1e-2)
        coarse = min_copies(rho, I4, 0.01)
        assert certified.certified and not coarse.certified
        assert coarse.n_min >= certified.n_min


class TestSearch:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_fractions_match_entanglement_fraction(self, d, monkeypatch):
        # The first bound call sees 1 - F(zeta) of every candidate, in order.
        calls = _recorded(monkeypatch, "_interval_bound")
        rho = random_density(d * d, SeededRng(15), split=(d, d))
        flats = random_flat_spectrum(d * d, [SeededRng(700 + i) for i in range(200)])
        zetas = np.concatenate([maximally_mixed(d * d).mat[None], flats])
        _copies_budgets(rho, zetas, 0.5)
        want = [max(0.0, 1.0 - entanglement_fraction(DensityMatrix(z, d, d))) for z in zetas]
        np.testing.assert_array_equal(calls[0][0][0], want)

    def test_degenerate_search_equals_benchmark(self):
        rho = random_density(4, SeededRng(11), split=(2, 2))
        res = min_copies_search(
            CatalystSearchQuery(rho=rho, epsilon=0.1, candidate_count=0, rng=SeededRng(1))
        )
        assert res.n_best == res.n_mixed
        np.testing.assert_array_equal(res.zeta_best.mat, I4.mat)

    def test_never_worse_than_benchmark(self):
        rho = random_density(4, SeededRng(12), split=(2, 2))
        for eps in (0.05, 0.1, 0.2):
            res = min_copies_search(
                CatalystSearchQuery(rho=rho, epsilon=eps, candidate_count=30, rng=SeededRng(2))
            )
            assert res.n_best <= res.n_mixed

    def test_deterministic(self):
        rho = random_density(4, SeededRng(13), split=(2, 2))
        q = CatalystSearchQuery(rho=rho, epsilon=0.1, candidate_count=15, rng=SeededRng(3))
        r1, r2 = min_copies_search(q), min_copies_search(q)
        assert r1.n_best == r2.n_best
        np.testing.assert_array_equal(r1.zeta_best.mat, r2.zeta_best.mat)


class TestDescentRatio:
    def test_equal_inputs(self):
        assert descent_ratio(100, 100) == 0.0

    def test_arithmetic(self):
        assert abs(descent_ratio(200, 150) - 0.25) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            descent_ratio(0, 1)


class TestTeleportPlan:
    def test_mixture_invariant_validated(self):
        rho = random_density(4, SeededRng(21), split=(2, 2))
        plan = convex_split_plan(rho, I4, 0.1, Task.TELEPORT)
        recon = plan.p * max_entangled_density(2).mat + (1 - plan.p) * I4.mat
        assert np.max(np.abs(recon - plan.tau.mat)) < 1e-10
        assert math.isfinite(plan.k)

    def test_end_to_end_fidelity(self):
        for seed in range(15):
            rho = random_density(4, SeededRng(700 + seed), split=(2, 2))
            for eps in (0.05, 0.1, 0.2):
                plan = convex_split_plan(rho, I4, eps, Task.TELEPORT)
                marg = convex_split_marginal(rho, plan.tau, plan.copies)
                assert abs(plan.output_fraction - entanglement_fraction(marg)) < 1e-12
                f = average_fidelity_from_fraction(entanglement_fraction(marg), 2)
                assert f >= 1 - eps
