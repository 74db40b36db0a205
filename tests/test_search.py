"""Search drivers: greedy, swapping with restarts, exhaustive enumeration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import criteria, search, simlab
from csskit.criteria import Criterion, CriterionKind, evaluate
from csskit.errors import DimMismatch, TooManySubsets
from csskit.search import SearchConfig, exhaustive, greedy, swap


def rand_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    g = rng.standard_normal((p, rank))
    return g @ g.T / p


def css(p, k):
    return Criterion(CriterionKind.CSS_TRACE, p=p, k=k)


def test_greedy_diagonal():
    res = greedy(np.diag([1.0, 2.0, 3.0]), SearchConfig(k=2, criterion=css(3, 2)))
    assert res.subset == (2, 1)
    assert res.objective == pytest.approx(1.0)
    assert [res.subset[:k] for k in (1, 2)] == [(2,), (2, 1)]
    assert_allclose(res.trajectory, [3.0, 1.0])


def test_greedy_equicorrelation_tie_break():
    # All three variables are exchangeable; the lowest index must win.
    sigma = 0.75 * np.eye(3) + 0.25 * np.ones((3, 3))
    res = greedy(sigma, SearchConfig(k=1, criterion=css(3, 1)))
    assert res.subset == (0,)
    assert res.objective == pytest.approx(1.875)


def test_greedy_nestedness():
    rng = np.random.default_rng(83)
    for _ in range(10):
        p = int(rng.integers(5, 10))
        sigma = rand_psd(rng, p)
        full = greedy(sigma, SearchConfig(k=4, criterion=css(p, 4)))
        for k in range(1, 4):
            part = greedy(sigma, SearchConfig(k=k, criterion=css(p, k)))
            assert part.subset == full.subset[:k]


def test_swap_trajectory_monotone():
    rng = np.random.default_rng(89)
    for _ in range(10):
        p = int(rng.integers(6, 12))
        sigma = rand_psd(rng, p)
        cfg = SearchConfig(k=3, criterion=css(p, 3), restarts=2, seed=5)
        res = swap(sigma, cfg)
        traj = np.array(res.trajectory)
        assert np.all(np.diff(traj) <= 1e-10)
        assert res.sweeps_used >= 1


def test_swap_keeps_the_state_of_a_kept_incumbent(monkeypatch):
    # The state is advanced only to build the start and for an accepted
    # swap; a kept incumbent is not retracted and added back.
    from csskit import criteria

    calls = []
    advance = criteria.advance

    def counting_advance(*args):
        calls.append(args[3])
        return advance(*args)

    monkeypatch.setattr(criteria, "advance", counting_advance)
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = int(rng.integers(8, 14))
        sigma = rand_psd(rng, p)
        calls.clear()
        res = swap(sigma, SearchConfig(k=4, criterion=css(p, 4), seed=3))
        accepted = len(res.trajectory) - 1
        assert len(calls) == 4 + accepted
        assert res.sweeps_used >= 1


def test_search_rejects_asymmetric_sigma():
    # The pick would depend on which triangle is read: CssTrace greedy k=1
    # picked variable 1 on this matrix and 0 on its transpose.  The state
    # is where sigma is checked, so building one raises too.
    sigma = np.array([[1.0, 0.9, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cfg = SearchConfig(k=1, criterion=css(3, 1), restarts=2, seed=1)
    for m in (sigma, sigma.T, 1e-9 * sigma):
        with pytest.raises(DimMismatch):
            greedy(m, cfg)
        with pytest.raises(DimMismatch):
            swap(m, cfg)
        with pytest.raises(DimMismatch):
            swap(m, cfg, init=[0])
        with pytest.raises(DimMismatch):
            exhaustive(m, cfg)
        with pytest.raises(DimMismatch):
            criteria.init_state(css(3, 1), m)
        with pytest.raises(DimMismatch):
            criteria.state_from_subset(css(3, 1), m, [0])
    # roundoff-level asymmetry is symmetrized; exact symmetry is used as is
    near = rand_psd(np.random.default_rng(101), 5)
    assert criteria.init_state(css(5, 2), near).sigma is near
    near[0, 1] += 1e-14
    fixed = criteria.init_state(css(5, 2), near).sigma
    assert np.array_equal(fixed, fixed.T)


def test_swap_improves_on_its_init():
    rng = np.random.default_rng(97)
    sigma = rand_psd(rng, 9)
    cfg = SearchConfig(k=3, criterion=css(9, 3))
    start = (8, 7, 6)
    res = swap(sigma, cfg, init=start)
    assert res.objective <= evaluate(css(9, 3), sigma, start) + 1e-10


def test_search_chain_orderings():
    # exhaustive <= swap (any restarts) and swap started from greedy's
    # subset never loses to greedy.
    rng = np.random.default_rng(101)
    for _ in range(8):
        p = int(rng.integers(5, 9))
        sigma = rand_psd(rng, p)
        crit = css(p, 2)
        cfg = SearchConfig(k=2, criterion=crit, restarts=3, seed=11)
        ex = exhaustive(sigma, cfg)
        sw = swap(sigma, cfg)
        gr = greedy(sigma, cfg)
        polished = swap(sigma, SearchConfig(k=2, criterion=crit), init=gr.subset)
        assert ex.objective <= sw.objective + 1e-9
        assert ex.objective <= polished.objective + 1e-9
        assert polished.objective <= gr.objective + 1e-9


def test_swap_deterministic_and_thread_stable(monkeypatch):
    # Force each side of the pool rule; every path gives the same result.
    pools = []

    class Pool(search.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(search, "ThreadPoolExecutor", Pool)
    rng = np.random.default_rng(103)
    sigma = rand_psd(rng, 10)
    cfg = SearchConfig(k=4, criterion=css(10, 4), restarts=4, seed=17)
    outcomes = []
    for min_p, workers in ((10, "4"), (10, "1"), (11, "4"), (10, "4")):
        monkeypatch.setattr(search, "POOL_MIN_P", min_p)
        monkeypatch.setenv("CSSKIT_THREADS", workers)
        res = swap(sigma, cfg)
        outcomes.append((res.subset, res.objective, res.trajectory, res.sweeps_used))
    assert pools == [4, 4]  # p >= POOL_MIN_P and 4 workers allowed
    assert all(out == outcomes[0] for out in outcomes)
    swap(sigma, SearchConfig(k=4, criterion=css(10, 4), seed=17))
    assert pools == [4, 4]  # a single restart runs no pool


def test_scale_equivariant_selection():
    rng = np.random.default_rng(107)
    sigma = rand_psd(rng, 8)
    cfg = SearchConfig(k=3, criterion=css(8, 3), restarts=2, seed=3)
    base_g = greedy(sigma, cfg)
    base_s = swap(sigma, cfg)
    for c in (1e-4, 7.0, 1e5):
        assert greedy(c * sigma, cfg).subset == base_g.subset
        scaled = swap(c * sigma, cfg)
        assert scaled.subset == base_s.subset
        assert scaled.objective == pytest.approx(c * base_s.objective, rel=1e-9)


def test_swap_margin_follows_units():
    # The swap margin scales with each criterion's score units, so at any
    # scale of sigma swap makes the moves it makes at unit scale.
    g = np.random.default_rng(1).standard_normal((12, 12))
    sigma = g @ g.T / 12
    for kind in CriterionKind:
        cfg = SearchConfig(k=3, criterion=Criterion(kind, p=12, k=3), seed=1)
        base = swap(sigma, cfg)
        for c in (1e-14, 1e-8, 1e8, 1e14):
            assert swap(c * sigma, cfg).subset == base.subset, (kind, c)


def test_exhaustive_diagonal_and_cap():
    crit = css(4, 2)
    res = exhaustive(np.diag([4.0, 1.0, 3.0, 2.0]), SearchConfig(k=2, criterion=crit))
    assert tuple(sorted(res.subset)) == (0, 2)
    assert res.objective == pytest.approx(3.0)
    with pytest.raises(TooManySubsets):
        exhaustive(np.eye(40), SearchConfig(k=20, criterion=css(40, 20)))  # C(40, 20) > cap


def test_exhaustive_lexicographic_tie_break():
    # Identity: every subset gives the same objective; the first in
    # lexicographic order must be returned.
    res = exhaustive(np.eye(5), SearchConfig(k=2, criterion=css(5, 2)))
    assert res.subset == (0, 1)


def test_config_validation():
    with pytest.raises(DimMismatch):
        SearchConfig(k=0, criterion=css(3, 1))
    with pytest.raises(DimMismatch):
        SearchConfig(k=2, criterion=css(3, 2), restarts=0)
    with pytest.raises(DimMismatch):
        swap(np.eye(4), SearchConfig(k=2, criterion=css(4, 2)), init=(0, 1, 2))


def test_config_k_must_match_criterion():
    # IsoLrt's exponent p - k comes from the criterion, so a config of
    # another k would score one size with another size's law.
    iso = Criterion(CriterionKind.ISO_LRT, p=6, k=3)
    for k in (2, 4):
        with pytest.raises(DimMismatch, match="criterion"):
            SearchConfig(k=k, criterion=iso)
        with pytest.raises(DimMismatch, match="criterion"):
            SearchConfig(k=k, criterion=css(6, 3))
    assert SearchConfig(k=3, criterion=iso).k == 3


def test_population_preset_optimum():
    # On the 20-variable synthetic population the planted size-4 subset is
    # the exhaustive CSS optimum, with residual trace 16 * 0.15 = 2.4.
    spec = simlab.missing_a1_spec(mar_prob=0.0)
    pop = simlab.population_cov(spec)
    res = exhaustive(pop, SearchConfig(k=4, criterion=css(20, 4)))
    assert tuple(sorted(res.subset)) == (0, 1, 2, 3)
    assert res.objective == pytest.approx(2.4, abs=1e-9)
    # greedy and swap find it too
    gr = greedy(pop, SearchConfig(k=4, criterion=css(20, 4)))
    assert tuple(sorted(gr.subset)) == (0, 1, 2, 3)
    sw = swap(pop, SearchConfig(k=4, criterion=css(20, 4), restarts=5, seed=0))
    assert tuple(sorted(sw.subset)) == (0, 1, 2, 3)


def test_max_sweeps_cap_reported():
    rng = np.random.default_rng(109)
    sigma = rand_psd(rng, 12)
    cfg = SearchConfig(k=5, criterion=css(12, 5), max_sweeps=1, seed=2)
    res = swap(sigma, cfg)
    assert res.sweeps_used == 1
