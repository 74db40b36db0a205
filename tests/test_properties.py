"""Property-based checks over randomly generated problems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from csskit import search, sizesel, symmat
from csskit.criteria import Criterion, CriterionKind, evaluate
from csskit.search import SearchConfig


@st.composite
def gram_matrices(draw, min_p=2, max_p=7):
    p = draw(st.integers(min_p, max_p))
    rank = draw(st.integers(1, p))
    seed = draw(st.integers(0, 2**31 - 1))
    g = np.random.default_rng(seed).standard_normal((p, rank))
    return g @ g.T / p


@st.composite
def symmetric_matrices(draw, min_p=2, max_p=7):
    p = draw(st.integers(min_p, max_p))
    seed = draw(st.integers(0, 2**31 - 1))
    a = np.random.default_rng(seed).standard_normal((p, p))
    return (a + a.T) / 2


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices())
def test_psd_project_idempotent_and_psd(a):
    w = symmat.psd_project(a)
    assert np.min(np.linalg.eigvalsh(w)) >= -1e-9 * max(
        1.0, np.max(np.abs(np.linalg.eigvalsh(a)))
    )
    assert np.linalg.norm(symmat.psd_project(w) - w) <= 1e-8 * max(
        1.0, np.linalg.norm(w)
    )


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices(), st.integers(0, 2**31 - 1))
def test_psd_project_dominates_random_candidates(a, seed):
    w = symmat.psd_project(a)
    base = np.linalg.norm(w - a)
    rng = np.random.default_rng(seed)
    p = a.shape[0]
    for _ in range(20):
        g = rng.standard_normal((p, int(rng.integers(1, p + 1))))
        cand = g @ g.T / p
        assert np.linalg.norm(cand - a) >= base - 1e-9


@settings(max_examples=50, deadline=None)
@given(gram_matrices(max_p=12))
def test_pseudo_inverse_penrose(a):
    x = symmat.pseudo_inverse(a)
    scale = max(1.0, np.linalg.norm(a), np.linalg.norm(x))
    # Forming X A X in floating point, and X itself (the exact pseudo-inverse
    # of a matrix within about p eps |A| of A), each cost about
    # p eps kappa |X| with kappa = |A|_2 |X|_2, which the kept spectrum lets
    # reach 1 / RANK_TOL; 1e-8 covers the cut eigenvalues (each at most
    # RANK_TOL |A|_2).
    kappa = np.linalg.norm(a, 2) * np.linalg.norm(x, 2)
    tol = (1e-8 + 8 * a.shape[0] * np.finfo(float).eps * kappa) * scale
    assert np.linalg.norm(a @ x @ a - a) <= tol
    assert np.linalg.norm(x @ a @ x - x) <= tol
    assert np.linalg.norm(a @ x - (a @ x).T) <= tol


@settings(max_examples=50, deadline=None)
@given(gram_matrices(), st.integers(0, 2**31 - 1))
def test_residual_trace_monotone(sigma, seed):
    p = sigma.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(p)[: min(3, p)]
    prev = float(np.trace(sigma))
    subset = []
    for i in order:
        subset.append(int(i))
        cur = float(np.trace(symmat.residual_covariance(sigma, subset)))
        assert cur <= prev + 1e-9 * max(1.0, prev)
        prev = cur


@settings(max_examples=40, deadline=None)
@given(gram_matrices(min_p=3))
def test_greedy_nestedness(sigma):
    p = sigma.shape[0]
    k = min(4, p)
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=k)
    full = search.greedy(sigma, SearchConfig(k=k, criterion=crit))
    for kk in range(1, k):
        crit_k = Criterion(CriterionKind.CSS_TRACE, p=p, k=kk)
        part = search.greedy(sigma, SearchConfig(k=kk, criterion=crit_k))
        assert part.subset == full.subset[:kk]


@settings(max_examples=40, deadline=None)
@given(gram_matrices(min_p=4), st.integers(0, 1000))
def test_swap_monotone_and_beats_init(sigma, seed):
    p = sigma.shape[0]
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=2)
    cfg = SearchConfig(k=2, criterion=crit, seed=seed)
    res = search.swap(sigma, cfg)
    traj = res.trajectory
    assert all(traj[i + 1] <= traj[i] + 1e-9 for i in range(len(traj) - 1))
    assert res.objective <= traj[0] + 1e-9
    rng = np.random.default_rng(seed)
    start = tuple(sorted(rng.choice(p, size=2, replace=False).tolist()))
    res2 = search.swap(sigma, cfg, init=start)
    assert res2.objective <= evaluate(crit, sigma, start) + 1e-9


@settings(max_examples=30, deadline=None)
@given(gram_matrices(min_p=3), st.floats(min_value=1e-4, max_value=1e4))
def test_scale_equivariant_selection(sigma, c):
    # Asserted on instances with unique optima (a ridge rules out exact
    # ties, which rounding noise resolves differently at different scales);
    # subsets compare as sets because restarts may order the same optimum
    # differently when ulp-level objective noise flips the reduction.
    p = sigma.shape[0]
    sigma = sigma + 0.5 * np.eye(p)
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=2)
    cfg = SearchConfig(k=2, criterion=crit, restarts=2, seed=1)
    assert sorted(search.greedy(c * sigma, cfg).subset) == sorted(
        search.greedy(sigma, cfg).subset
    )
    base = search.swap(sigma, cfg)
    scaled = search.swap(c * sigma, cfg)
    assert sorted(scaled.subset) == sorted(base.subset)
    assert abs(scaled.objective - c * base.objective) <= 1e-9 * max(
        1.0, abs(c * base.objective)
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 8), st.integers(2, 40), st.integers(0, 2**31 - 1))
def test_mc_quantile_monotone_in_k(p, n_extra, seed):
    n = p + n_extra
    qs = [
        sizesel.null_draws_subset_factor(n, p, k, 4000, seed).mean()
        for k in range(p)
    ]
    assert all(qs[i + 1] <= qs[i] + 1e-9 for i in range(p - 1))
    assert qs[-1] == 0.0
    for fn in (sizesel.null_quantile_subset_factor, sizesel.null_quantile_pcss):
        exact = [fn(n, p, k, 0.05) for k in range(p)]
        assert all(exact[i + 1] < exact[i] for i in range(p - 1))
        assert exact[-1] == 0.0
