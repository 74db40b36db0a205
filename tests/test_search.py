"""Search drivers: greedy, swapping with restarts, exhaustive enumeration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import criteria, search, simlab
from csskit.criteria import Criterion, CriterionKind, evaluate
from csskit.errors import DimMismatch, NotPSD, TooManySubsets
from csskit.search import SearchConfig, SearchResult, exhaustive, greedy, swap


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


def _single_runs(sigma, cfg):
    # Restart r of swap, run alone from its seeded start.
    one = SearchConfig(k=cfg.k, criterion=cfg.criterion, max_sweeps=cfg.max_sweeps)
    runs, decisions = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        start = tuple(sorted(rng.choice(cfg.criterion.p, size=cfg.k, replace=False).tolist()))
        runs.append(swap(sigma, one, init=start, decisions=decisions))
    return runs, decisions


def _outcome(res):
    return res.subset, res.objective, res.trajectory, res.sweeps_used


def test_swap_returns_first_minimum_of_its_restarts(monkeypatch):
    # The restarts walk in lockstep; each must reach, bit for bit, what it
    # reaches run alone from its start.
    rng = np.random.default_rng(103)
    diag_det = Criterion(CriterionKind.DIAG_DET, p=12, k=5)
    iso = Criterion(CriterionKind.ISO_LRT, p=11, k=4)
    # Variable 11 duplicates variable 0 (rank 11 of 12): a start holding
    # neither is finite, and swapping either in fits the other perfectly,
    # so that restart leaves the stack for the per-state moves mid-walk.
    dup = rand_psd(rng, 12)
    dup[11], dup[:, 11] = dup[0], dup[:, 0]
    # Under CSS at k=1 variables 0 and 1 tie exactly: a start at 1 keeps 1,
    # every other start moves to 0.  Restart 0 of seed 14 starts at 1.
    tie = np.diag([5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    cases = [
        (rand_psd(rng, 10), SearchConfig(k=4, criterion=css(10, 4), restarts=4, seed=17), None),
        (rand_psd(rng, 12), SearchConfig(k=5, criterion=diag_det, restarts=3, seed=2), None),
        (rand_psd(rng, 11), SearchConfig(k=4, criterion=iso, restarts=6, seed=5), None),
        (dup, SearchConfig(k=5, criterion=diag_det, restarts=6, seed=8), None),
        (rand_psd(rng, 12), SearchConfig(k=5, criterion=diag_det, restarts=5, max_sweeps=1, seed=4), None),
        # a budget of two restarts' temporaries splits 7 restarts into 4 groups
        (rand_psd(rng, 11), SearchConfig(k=4, criterion=iso, restarts=7, seed=9), 2 * (8**2 + 8 * 11)),
        (tie, SearchConfig(k=1, criterion=css(8, 1), restarts=4, seed=14), None),
    ]
    for sigma, cfg, budget in cases:
        runs, expected = _single_runs(sigma, cfg)
        best = min(run.objective for run in runs)
        first = next(run for run in runs if run.objective == best)
        decisions = []
        with monkeypatch.context() as m:
            if budget is not None:
                m.setattr(search, "STACK_BUDGET", budget)
                assert search._group_size(cfg.criterion) == 2
            res = swap(sigma, cfg, decisions=decisions)
        assert _outcome(res) == _outcome(first)
        assert [(s.sweeps, s.accepted, s.objective) for s in res.restarts] == [
            (run.sweeps_used, len(run.trajectory) - 1, run.objective) for run in runs
        ]
        # restart 0's decisions first, then each restart in turn
        assert len(decisions) == len(expected)
        for got, want in zip(decisions, expected):
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])
        if sigma is dup:  # some restart starts finite and ends at -inf
            assert any(run.trajectory[0] > -np.inf and run.trajectory[-1] == -np.inf for run in runs)
        if cfg.max_sweeps == 1:  # some restart accepts a swap, so the cap stops it
            assert any(run.restarts[0].accepted > 0 for run in runs)
    assert [run.subset for run in runs] == [(1,), (0,), (0,), (0,)]
    assert len({run.objective for run in runs}) == 1  # an exact tie
    assert res.subset == (1,)  # the lowest restart wins


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


def test_swap_stops_after_k_kept_positions_in_a_row():
    # A converged start keeps every position in its first sweep, and a run
    # stops at the position that completes k kept positions in a row, not
    # at the end of a sweep with no swap.
    rng = np.random.default_rng(113)
    ended_mid_sweep = 0
    for t in range(30):
        p = int(rng.integers(6, 14))
        sigma = rand_psd(rng, p)
        k = int(rng.integers(2, 5))
        kind = list(CriterionKind)[t % 6]
        cfg = SearchConfig(k=k, criterion=Criterion(kind, p=p, k=k), seed=t)
        res = swap(sigma, cfg)
        decisions = []
        again = swap(sigma, cfg, init=res.subset, decisions=decisions)
        assert again.subset == res.subset and again.sweeps_used == 1
        assert len(decisions) == k
        assert all(incumbent == picked for _, incumbent, picked, _, _ in decisions)

        start = tuple(rng.permutation(p)[:k].tolist())
        decisions = []
        res = swap(sigma, cfg, init=start, decisions=decisions)
        kept = [incumbent == picked for _, incumbent, picked, _, _ in decisions]
        if res.trajectory[-1] == -np.inf:
            continue
        assert all(kept[-k:]) and len(kept) <= k * res.sweeps_used
        runs = "".join("1" if x else "0" for x in kept[:-1])
        assert "1" * k not in runs, (t, kept)
        ended_mid_sweep += len(kept) % k != 0
    assert ended_mid_sweep > 0


def test_drift_of_greedy_and_swap():
    # trajectory[-1] is read from the search state, objective from scratch;
    # they agree to update roundoff on every criterion and kind of sigma.
    rng = np.random.default_rng(127)
    for t in range(60):
        p = int(rng.integers(5, 12))
        mode = t % 3
        sigma = rand_psd(rng, p, p if mode != 1 else p - 2)
        if mode == 2:
            d = 10.0 ** rng.uniform(-3.0, 3.0, p)
            sigma = d[:, None] * sigma * d[None, :]
        k = int(rng.integers(1, p - 1))
        for kind in CriterionKind:
            if kind == CriterionKind.DET_RESIDUAL and mode == 1:
                continue  # -inf at every subset of a singular sigma
            cfg = SearchConfig(k=k, criterion=Criterion(kind, p=p, k=k), restarts=2, seed=t)
            for res in (greedy(sigma, cfg), swap(sigma, cfg)):
                assert res.drift <= 1e-8 * max(1.0, abs(res.objective)), (t, kind, res)


def test_drift_shows_the_two_rank_tests_disagreeing():
    # Near the cutoff the pivot test and the block's eigenvalue test
    # disagree: greedy's state has a finite log-determinant (-21.93), but
    # evaluate's block is singular (-inf).
    rho = np.sqrt(1.0 - 3e-10)
    sigma = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cfg = SearchConfig(k=2, criterion=Criterion(CriterionKind.DIAG_DET, p=3, k=2))
    res = greedy(sigma, cfg)
    assert res.subset == (0, 1)
    assert_allclose(res.trajectory, [np.log(3e-10)] * 2, rtol=1e-5)
    assert res.objective == -np.inf and res.drift == np.inf
    both = SearchResult((0,), -np.inf, [-np.inf])
    assert both.drift == 0.0


def test_swap_det_residual_on_rank_deficient_sigma():
    # Rank 8 of 10: every 8-subset is -inf under DetResidual.  A starting
    # subset's 2 x 2 complement block has residual variances just above the
    # rank rule's cutoff, and its roundoff read as an indefinite block.
    rng = np.random.default_rng(2024)
    for _ in range(294):
        g = rng.standard_normal((10, 8))
    sigma = g @ g.T / 10
    crit = Criterion(CriterionKind.DET_RESIDUAL, p=10, k=8)
    cfg = SearchConfig(k=8, criterion=crit, restarts=2, seed=293)
    assert greedy(sigma, cfg).objective == -np.inf
    res = swap(sigma, cfg)
    assert res.objective == -np.inf and res.drift == 0.0


def test_det_residual_still_rejects_an_indefinite_sigma():
    # The complement block of (0,) is [[1, 2], [2, 1]], eigenvalue -1 on
    # its unit variances: not roundoff of a perfect fit.
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    crit = Criterion(CriterionKind.DET_RESIDUAL, p=3, k=1)
    with pytest.raises(NotPSD):
        evaluate(crit, sigma, (0,))
    with pytest.raises(NotPSD):
        exhaustive(sigma, SearchConfig(k=1, criterion=crit))
