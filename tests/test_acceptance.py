"""End-to-end acceptance gate.

Eight independent checks, one test each, covering: search-vs-enumeration
agreement, incremental-vs-fresh linear algebra, the missing-data recovery
study, null calibration and error control of the size-selection tests, the
block-factor size study, wall-clock budgets at the large-matrix scale, and
the core algebraic/statistical properties.  Each test prints a single
summary line with its measured numbers.
"""

import time

import numpy as np
import pytest
import scipy.stats

from csskit import covest, criteria, search, simlab, sizesel, symmat
from csskit.criteria import Criterion, CriterionKind
from csskit.search import SearchConfig
from csskit.simlab import ScenarioSpec
from csskit.sizesel import Model

pytestmark = pytest.mark.acceptance


def rand_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    g = rng.standard_normal((p, rank))
    return g @ g.T / p


def rel_gap(got, want):
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


def _assert_pick_attains(vals, pos, where):
    lo = float(np.min(vals))
    if lo == -np.inf:
        assert vals[pos] == -np.inf, where
    else:
        assert vals[pos] <= lo + 1e-8 * max(1.0, abs(lo)), (where, vals[pos], lo)


def test_criterion_1_oracle_equivalence():
    """Greedy first steps and all swap decisions attain the enumeration
    minimum for all six criteria on 200 random instances."""
    t0 = time.perf_counter()
    decisions_checked = 0
    for t in range(200):
        rng = np.random.default_rng(t)
        p = int(rng.integers(4, 9))
        rank = [p, p, max(2, p - 2)][t % 3]
        sigma = rand_psd(rng, p, rank)
        k = int(rng.integers(1, 4))
        for kind in CriterionKind:
            if kind == CriterionKind.DET_RESIDUAL and rank < p:
                # on singular input this objective is -inf at every subset:
                # the reference argmin is undefined, only noise differs
                continue
            crit = Criterion(kind, p=p, k=k)
            state = criteria.init_state(crit, sigma)
            cands, scores = criteria.score_all(crit, state)
            pos = int(np.argmin(scores))
            ties = np.flatnonzero(scores == scores[pos])
            assert pos == ties[0]  # lowest index among tied scores
            vals = np.array(
                [criteria.evaluate(crit, sigma, (int(i),)) for i in cands]
            )
            _assert_pick_attains(vals, pos, (t, kind, "greedy-first"))

            dec = []
            cfg = SearchConfig(k=k, criterion=crit, restarts=1, seed=1000 + t)
            search.swap(sigma, cfg, decisions=dec)
            for kept, incumbent, picked, cands2, scores2 in dec:
                vals2 = np.array(
                    [
                        criteria.evaluate(crit, sigma, tuple(kept) + (int(i),))
                        for i in cands2
                    ]
                )
                ppos = int(np.flatnonzero(np.asarray(cands2) == picked)[0])
                _assert_pick_attains(vals2, ppos, (t, kind, kept, incumbent))
                decisions_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 1: {decisions_checked} swap decisions and all greedy "
        f"first steps match enumeration ({elapsed:.1f}s)"
    )


def test_criterion_2_update_vs_recompute():
    """500 random add/remove sequences keep incremental residuals, and
    CanonCorr's carried block inverse ``(Omega_SS)^-1`` wherever ``Omega =
    sigma^-1`` exists, within 1e-8 (relative Frobenius) of fresh
    computation."""
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(500):
        rng = np.random.default_rng(10_000 + t)
        p = int(rng.integers(3, 13))
        rank = p if t % 3 else max(2, int(rng.integers(2, p + 1)))
        sigma = rand_psd(rng, p, rank)
        kind = CriterionKind.CANON_CORR if t % 5 == 0 else CriterionKind.CSS_TRACE
        crit = Criterion(kind, p=p, k=max(1, p - 1))
        state = criteria.init_state(crit, sigma)
        for _ in range(6):
            can_add = len(state.subset) < p - 1
            if state.subset and (not can_add or rng.random() < 0.4):
                pos = int(rng.integers(0, len(state.subset)))
                state = criteria.retract(crit, state, sigma, pos)
            else:
                choices = [i for i in range(p) if i not in state.subset]
                state = criteria.advance(
                    crit, state, sigma, int(rng.choice(choices))
                )
            fresh_res = symmat.residual_covariance(sigma, state.subset)
            worst = max(worst, rel_gap(state.residual, fresh_res))
            if state.omega is not None:
                idx = list(state.subset)
                fresh_h = np.linalg.inv(state.omega[np.ix_(idx, idx)])
                worst = max(worst, rel_gap(state.omega_block_inv, fresh_h))
            assert worst < 1e-8, (t, state.subset)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 2: 500 sequences, worst relative gap {worst:.2e} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_3_missing_data_recovery():
    """100 MAR trials at n=200: near-perfect recovery of the planted subset
    from pairwise-complete covariance plus swapping search."""
    t0 = time.perf_counter()
    rows, summary = simlab.run_missing_study(
        trials=100, n=200, seed=0, mar_prob=0.05, restarts=10
    )
    elapsed = time.perf_counter() - t0
    assert summary["recovery_rate"] >= 0.95
    assert abs(summary["mean_pop_css_objective"] - 2.400) <= 0.05
    assert summary["baseline_recovery_rate"] <= 0.05
    assert elapsed < 300.0
    print(
        f"PASS criterion 3: recovery {summary['recovery_rate']:.3f}, "
        f"objective {summary['mean_pop_css_objective']:.4f}, "
        f"baseline {summary['baseline_recovery_rate']:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_4_null_calibration():
    """At a known correct subset the diagonality statistic follows its
    Monte Carlo null law: level <= 0.08 at alpha 0.05 and KS distance < 0.08
    against 10^4 law draws, over 500 Gaussian trials (n=100, p=8, k=2)."""
    t0 = time.perf_counter()
    w = np.array(
        [[0.9, 0.2], [0.1, 0.8], [0.5, 0.5], [0.7, 0.1], [0.2, 0.6], [0.4, 0.4]]
    )
    spec = ScenarioSpec(
        model="subset-factor",
        p=8,
        subset=(0, 1),
        sigma_s=np.array([[1.0, 0.3], [0.3, 1.0]]),
        w=w,
        d_diag=np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2]),
    )
    n = 100
    stats = np.empty(500)
    for t in range(500):
        data = simlab.sample(spec, n, seed=[929, t])
        sigma_hat = covest.sample_cov(data)
        stats[t] = sizesel.stat_T(sigma_hat, n, spec.subset)
    cv = sizesel.mc_quantile_subset_factor(n, 8, 2, 0.05, 100_000, 0)
    rejection = float(np.mean(stats > cv))
    law = sizesel.null_draws_subset_factor(n, 8, 2, 10_000, 12345)
    ks = scipy.stats.ks_2samp(stats, law).statistic
    elapsed = time.perf_counter() - t0
    assert rejection <= 0.08
    assert ks < 0.08
    assert elapsed < 120.0
    print(
        f"PASS criterion 4: rejection {rejection:.3f} at alpha=0.05, "
        f"KS {ks:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_5_size_error_control():
    """Selecting the size on the 20-variable isotropic-noise population:
    200 Gaussian trials at n=200 rarely overshoot k*=4."""
    t0 = time.perf_counter()
    spec = simlab.missing_a1_spec(mar_prob=0.0)
    chosen = []
    for t in range(200):
        data = simlab.sample(spec, 200, seed=[61, t])
        sigma_hat = covest.sample_cov(data)
        report = sizesel.choose_k(
            sigma_hat, n=200, alpha=0.05, model=Model.PCSS,
            mc_samples=100_000, seed=5,
        )
        chosen.append(report.chosen_k)
    chosen = np.array(chosen)
    over = float(np.mean(chosen > 4))
    exact = float(np.mean(chosen == 4))
    elapsed = time.perf_counter() - t0
    assert over <= 0.10
    assert exact >= 0.80
    assert elapsed < 300.0
    print(
        f"PASS criterion 5: P(khat>4) = {over:.3f}, P(khat=4) = {exact:.3f} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_block_factor_size_study():
    """Size selection on the 50-variable block-factor scenario (n=200,
    k*=20, high signal): 50 trials per factor law land in [20, 22] with
    full overlap of the true subset."""
    t0 = time.perf_counter()
    details = []
    for factors in ("gaussian", "mixed"):
        rows, summary = simlab.run_sizesel_study(
            trials=50, n=200, alpha=0.05, signal=0.254, factors=factors,
            seed=0, restarts=10, mc_samples=100_000,
        )
        ks = np.array([row["chosen_k"] for row in rows])
        in_band = float(np.mean((ks >= 20) & (ks <= 22)))
        assert in_band >= 0.80, (factors, summary["k_distribution"])
        assert summary["median_overlap"] == 20.0, factors
        details.append(f"{factors}: band {in_band:.2f}, k {summary['k_distribution']}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    print(f"PASS criterion 6: {'; '.join(details)} ({elapsed:.1f}s)")


def test_criterion_7_performance_smoke():
    """Wall-clock budget at the 774-variable scale: greedy k=30 under 5 s,
    a 25-restart swap run under 60 s."""
    rng = np.random.default_rng(4242)
    g = rng.standard_normal((1000, 774))
    sigma = covest.to_correlation(g.T @ g / 1000.0)
    crit = Criterion(CriterionKind.CSS_TRACE, p=774, k=30)

    t0 = time.perf_counter()
    res_g = search.greedy(sigma, SearchConfig(k=30, criterion=crit))
    t_greedy = time.perf_counter() - t0
    assert len(res_g.subset) == 30
    assert t_greedy < 5.0

    cfg = SearchConfig(k=30, criterion=crit, restarts=25, seed=7)
    t0 = time.perf_counter()
    res_s = search.swap(sigma, cfg)
    t_swap = time.perf_counter() - t0
    assert len(res_s.subset) == 30
    assert res_s.objective <= res_g.objective + 1e-9
    assert t_swap < 60.0
    print(
        f"PASS criterion 7: greedy {t_greedy:.2f}s, swap x25 {t_swap:.1f}s "
        f"(objectives {res_g.objective:.2f} / {res_s.objective:.2f})"
    )


def test_criterion_8_property_suites():
    """Deterministic sweeps of the core properties: projection dominance
    (1000 candidates), greedy nestedness, swap monotonicity, scale
    equivariance, quantile monotonicity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)

    # PSD projection is the closest PSD point among 1000 random candidates
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2
    w = symmat.psd_project(a)
    base = np.linalg.norm(w - a)
    for _ in range(1000):
        cand = rand_psd(rng, 8, int(rng.integers(1, 9)))
        assert np.linalg.norm(cand - a) >= base - 1e-9

    for t in range(25):
        p = int(rng.integers(5, 11))
        sigma = rand_psd(rng, p)
        crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=4)
        full = search.greedy(sigma, SearchConfig(k=4, criterion=crit))
        for kk in range(1, 4):
            ck = Criterion(CriterionKind.CSS_TRACE, p=p, k=kk)
            assert (
                search.greedy(sigma, SearchConfig(k=kk, criterion=ck)).subset
                == full.subset[:kk]
            )
        cfg = SearchConfig(k=3, criterion=Criterion(CriterionKind.CSS_TRACE, p=p, k=3),
                           restarts=2, seed=t)
        res = search.swap(sigma, cfg)
        traj = res.trajectory
        assert all(traj[i + 1] <= traj[i] + 1e-10 for i in range(len(traj) - 1))

    for t in range(10):
        sigma = rand_psd(rng, 7) + 0.5 * np.eye(7)
        crit = Criterion(CriterionKind.CSS_TRACE, p=7, k=2)
        cfg = SearchConfig(k=2, criterion=crit, restarts=2, seed=100 + t)
        base_sel = sorted(search.swap(sigma, cfg).subset)
        base_greedy = sorted(search.greedy(sigma, cfg).subset)
        for c in (1e-3, 5.0, 1e4):
            assert sorted(search.swap(c * sigma, cfg).subset) == base_sel
            assert sorted(search.greedy(c * sigma, cfg).subset) == base_greedy

    for fn in (sizesel.mc_quantile_subset_factor, sizesel.mc_quantile_pcss):
        qs = [fn(60, 10, k, 0.05, 20_000, 3) for k in range(10)]
        assert all(qs[i + 1] < qs[i] for i in range(8))
        assert qs[9] == 0.0
    for fn in (sizesel.null_quantile_subset_factor, sizesel.null_quantile_pcss):
        qs = [fn(60, 10, k, 0.05) for k in range(10)]
        assert all(qs[i + 1] < qs[i] for i in range(9))
        assert qs[9] == 0.0

    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: property sweeps green ({elapsed:.1f}s)")
