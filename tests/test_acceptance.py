"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria are pinned to fixed seeds, so every assertion
here is a deterministic fact about the implementation.
"""

import math
import time

import numpy as np

from qembezzle import (
    CatalystSearchQuery,
    SeededRng,
    average_fidelity_from_fraction,
    average_fidelity_mc,
    catalyst_residual,
    consumption_bound,
    convex_split_joint,
    convex_split_marginal,
    convex_split_plan,
    embezzle_plan,
    entanglement_fraction,
    extraction_fidelity_bound,
    embezzling_state,
    load_fixture,
    maximally_mixed,
    max_relative_entropy,
    min_copies_search,
    partial_trace,
    product_preimage_state,
    purified_distance,
    random_density,
    random_full_rank,
    rearrangement_permutation,
    reference_initial_state,
    Task,
    tensor_product,
)
from qembezzle.correlated import RegionLabel, embezzling_rank_certifies, qutrit_region_map
from qembezzle.embezzle import _extraction_overlap
from qembezzle.experiments import ExperimentConfig, run_experiment
from qembezzle.fixtures import LABEL_KINDS, all_fixtures
from qembezzle.qmat import DensityMatrix

MASTER_SEED = 20260811
I4 = maximally_mixed(4, split=(2, 2))


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_fixture_fidelities():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for table, row, label, state in all_fixtures():
        if label is None:
            continue
        frac = entanglement_fraction(state)
        value = (
            average_fidelity_from_fraction(frac, 2)
            if LABEL_KINDS[table] == "avg_fidelity"
            else frac
        )
        worst = max(worst, abs(value - label))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 4 and worst <= 0.01 and elapsed < 1.0
    _verdict(1, ok, f"{checked} labelled fixtures, worst deviation {worst:.4f}, {elapsed:.2f}s")


def test_criterion_02_formula_versus_monte_carlo():
    start = time.perf_counter()
    worst_z = 0.0
    for idx in range(20):
        d = 2 if idx < 10 else 3
        rho = random_density(d * d, SeededRng(MASTER_SEED).derive(idx + 1), split=(d, d))
        expect = average_fidelity_from_fraction(entanglement_fraction(rho), d)
        mean, stderr = average_fidelity_mc(rho, 10_000, SeededRng(MASTER_SEED).derive(1000 + idx))
        worst_z = max(worst_z, abs(mean - expect) / stderr)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and elapsed < 60.0
    _verdict(2, ok, f"20 resources x 10^4 messages, worst |z| = {worst_z:.2f}, {elapsed:.1f}s")


def test_criterion_03_convex_split_exact_bound():
    start = time.perf_counter()
    violations = 0
    for trial in range(200):
        rho = random_density(4, SeededRng(MASTER_SEED).derive(3000 + trial), split=(2, 2))
        tau = random_full_rank(4, SeededRng(MASTER_SEED).derive(4000 + trial), split=(2, 2))
        k = max_relative_entropy(rho, tau)
        for n in (2, 3):
            _, dist = convex_split_joint(rho, tau, n)
            if dist > consumption_bound(k, n) + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    _verdict(3, ok, f"200 trials x n in (2,3), {violations} bound violations, {elapsed:.1f}s")


def test_criterion_04_teleport_catalyst_end_to_end():
    violations = 0
    for trial in range(50):
        rho = random_density(4, SeededRng(MASTER_SEED).derive(5000 + trial), split=(2, 2))
        for eps in (0.05, 0.1, 0.2):
            plan = convex_split_plan(rho, I4, eps, Task.TELEPORT)
            marginal = convex_split_marginal(rho, plan.tau, plan.copies)
            f_c = average_fidelity_from_fraction(entanglement_fraction(marginal), 2)
            if f_c < 1 - eps:
                violations += 1
    _verdict(4, violations == 0, f"50 resources x 3 error budgets, {violations} violations")


def test_criterion_05_extraction_bound_and_permutation():
    bound_viol = 0
    perm_worst = 0.0
    for d in (2, 3):
        for power in range(1, 11):
            m = 2**power
            if m < d:
                continue
            fidelity = _extraction_overlap(d, m) ** 2
            if fidelity < extraction_fidelity_bound(d, m) - 1e-12:
                bound_viol += 1
            perm = rearrangement_permutation(d, m)
            moved = perm.apply_pairwise(product_preimage_state(d, m).coefficients)
            want = np.outer(np.full(d, 1 / math.sqrt(d)), embezzling_state(m).amplitudes)
            perm_worst = max(perm_worst, float(np.max(np.abs(moved - want))))
    ok = bound_viol == 0 and perm_worst <= 1e-12
    _verdict(
        5,
        ok,
        f"ranks up to 2^10 at d in (2,3): {bound_viol} bound violations, "
        f"permutation identity worst {perm_worst:.2e}",
    )


def test_criterion_06_residual_oracle_equivalence():
    worst_gap = 0.0
    bound_viol = 0
    for d in (2, 3):
        for m in range(4, 65):
            res = catalyst_residual(d, m)
            worst_gap = max(worst_gap, abs(res.p_exact - res.p_closed_form))
            if res.p_exact > res.p_bound + 1e-9:
                bound_viol += 1
    ok = worst_gap <= 1e-9 and bound_viol == 0
    _verdict(
        6,
        ok,
        f"(d, M) in (2,3)x(4..64): direct-vs-closed worst {worst_gap:.2e}, "
        f"{bound_viol} consumption-bound violations",
    )


def test_criterion_07_dimension_reduction_on_reference_state():
    start = time.perf_counter()
    rho = reference_initial_state()
    eps_grid = (0.02, 0.05, 0.1, 0.15, 0.2)
    dominated = True
    improved_any = False
    for idx, eps in enumerate(eps_grid):
        res = min_copies_search(
            CatalystSearchQuery(
                rho=rho,
                epsilon=eps,
                candidate_count=100,
                rng=SeededRng(MASTER_SEED).derive((idx + 1) << 8),
            )
        )
        dominated &= res.n_best <= res.n_mixed
        improved_any |= res.ratio > 0
    elapsed = time.perf_counter() - start
    ok = dominated and improved_any and elapsed < 600.0
    _verdict(
        7,
        ok,
        f"N=100 over {len(eps_grid)} budgets: dominated={dominated}, "
        f"improved somewhere={improved_any}, {elapsed:.0f}s",
    )


def test_criterion_08_monte_carlo_improvement_fraction(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="montecarlo",
        samples=200,
        candidates=100,
        seed=MASTER_SEED,
        threads=4,
        output_path=str(tmp_path / "montecarlo.csv"),
    )
    result = run_experiment(cfg)
    ratios = [float(row[5]) for row in result.table.rows]
    frac = sum(1 for r in ratios if r > 0) / len(ratios)
    elapsed = time.perf_counter() - start
    ok = frac >= 0.95 and elapsed < 1800.0
    _verdict(8, ok, f"S=200, N=100: improvement fraction {frac:.4f}, {elapsed:.0f}s")


def test_criterion_09_region_map_labels():
    region = qutrit_region_map(100)
    labels_c = region.labels_correlated()
    labels_e = region.labels_embezzling()
    corners = [pt for pt in region.points if max(pt.weights) == 1.0]
    corners_ng = all(pt.label_correlated == RegionLabel.NOT_GUARANTEED for pt in corners)
    boostable = [
        pt for pt in region.points if pt.label_embezzling == RegionLabel.EMBEZZLING_BOOSTABLE
    ]
    ranks_ok = all(
        0 < pt.rank_required and embezzling_rank_certifies(3, pt.rank_required, region.threshold)
        for pt in boostable
    )
    ok = (
        labels_c
        == {RegionLabel.ALREADY_ABOVE, RegionLabel.CORRELATED_BOOSTABLE, RegionLabel.NOT_GUARANTEED}
        and RegionLabel.NOT_GUARANTEED not in labels_e
        and len(corners) == 3
        and corners_ng
        and ranks_ok
    )
    _verdict(
        9,
        ok,
        f"resolution 100: correlated labels {sorted(l.value for l in labels_c)}, "
        f"corners not guaranteed={corners_ng}, {len(boostable)} boostable points certified",
    )


def test_criterion_10_distillation_end_to_end():
    violations = 0
    for row in range(2):
        rho = load_fixture("III", row)
        for eps in (0.1, 0.2, 0.3):
            cs = convex_split_plan(rho, I4, eps, Task.DISTILL)
            if cs.output_fraction < 1 - eps:
                violations += 1
            em = embezzle_plan(2, eps)
            if extraction_fidelity_bound(2, em.schmidt_rank) < 1 - eps - 1e-12:
                violations += 1
    _verdict(10, violations == 0, f"2 fixtures x 3 budgets x 2 plans, {violations} violations")


def _dmax_bisection(rho, sigma):
    def feasible(lam):
        gap = 2.0**lam * sigma.mat - rho.mat
        return float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0]) >= -1e-12

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
    lo = -4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_11_property_suites():
    gen = np.random.default_rng(MASTER_SEED)
    metric_viol = dpi_viol = tensor_viol = 0
    for _ in range(500):
        dim = int(gen.integers(2, 5))
        a, b, c = (random_density(dim, gen) for _ in range(3))
        pab, pba = purified_distance(a, b), purified_distance(b, a)
        if pab < 0 or abs(pab - pba) > 1e-10:
            metric_viol += 1
        if pab > purified_distance(a, c) + purified_distance(c, b) + 1e-9:
            metric_viol += 1

        rho = random_density(4, gen, split=(2, 2))
        sig = random_density(4, gen, split=(2, 2))
        before = purified_distance(rho, sig)
        if purified_distance(partial_trace(rho, "A"), partial_trace(sig, "A")) > before + 1e-9:
            dpi_viol += 1
        g = gen.standard_normal((8, 4)) + 1j * gen.standard_normal((8, 4))
        v, _ = np.linalg.qr(g)
        lift_a = DensityMatrix._trusted(v @ rho.mat @ v.conj().T, split=(2, 4))
        lift_b = DensityMatrix._trusted(v @ sig.mat @ v.conj().T, split=(2, 4))
        if purified_distance(partial_trace(lift_a, "A"), partial_trace(lift_b, "A")) > before + 1e-9:
            dpi_viol += 1

        t = random_density(2, gen)
        if abs(purified_distance(tensor_product(a, t), tensor_product(b, t)) - pab) > 1e-9:
            tensor_viol += 1

    worst_dmax = 0.0
    for trial in range(100):
        rho = random_density(4, SeededRng(MASTER_SEED).derive(7000 + trial))
        sigma = random_full_rank(4, SeededRng(MASTER_SEED).derive(8000 + trial))
        worst_dmax = max(
            worst_dmax, abs(max_relative_entropy(rho, sigma) - _dmax_bisection(rho, sigma))
        )
    ok = metric_viol == 0 and dpi_viol == 0 and tensor_viol == 0 and worst_dmax <= 1e-6
    _verdict(
        11,
        ok,
        f"500 triples: {metric_viol} metric, {dpi_viol} DPI, {tensor_viol} tensor violations; "
        f"divergence spectral-vs-bisection worst {worst_dmax:.2e} over 100 instances",
    )
