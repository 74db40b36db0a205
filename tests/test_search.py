"""Search drivers: greedy, swapping with restarts, exhaustive enumeration."""

import json
import os
import subprocess
import sys
import tracemalloc

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
    # The stack is advanced only to build the start and for an accepted
    # swap; a kept incumbent is not retracted and added back.
    rows = []
    advance_stack = criteria.advance_stack

    def counting_advance_stack(stack, picks):
        rows.append(len(picks))
        return advance_stack(stack, picks)

    monkeypatch.setattr(criteria, "advance_stack", counting_advance_stack)
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = int(rng.integers(8, 14))
        sigma = rand_psd(rng, p)
        rows.clear()
        res = swap(sigma, SearchConfig(k=4, criterion=css(p, 4), seed=3))
        accepted = len(res.trajectory) - 1
        assert sum(rows) == 4 + accepted
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
    # Restart r of swap, run alone from its seeded start, and its decisions.
    one = SearchConfig(k=cfg.k, criterion=cfg.criterion, max_sweeps=cfg.max_sweeps)
    runs, decisions = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        start = tuple(sorted(rng.choice(cfg.criterion.p, size=cfg.k, replace=False).tolist()))
        decisions.append([])
        runs.append(swap(sigma, one, init=start, decisions=decisions[-1]))
    return runs, decisions


def _outcome(res):
    return res.subset, res.objective, res.trajectory, res.sweeps_used


def _swap_by_restart(monkeypatch, sigma, cfg):
    """``swap(sigma, cfg)`` and the decisions of each of its restarts, read
    from the walks that ``monkeypatch`` records."""
    made = []

    class Recorded(search._Run):
        def __init__(self, start):
            super().__init__(start)
            made.append(self)

    decisions = []
    monkeypatch.setattr(search, "_Run", Recorded)
    res = swap(sigma, cfg, decisions=decisions)
    # restart 0's decisions first, then each restart in turn
    assert decisions == [d for run in made for d in run.decisions]
    return res, [run.decisions for run in made]


def _same_decision(got, want):
    return got[:3] == want[:3] and np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])


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
    # CanonCorr's restarts end on one set in different orders, which
    # evaluate reads in ascending order: they tie exactly.
    more = np.random.default_rng(131)
    cc = rand_psd(more, 9)
    # DetResidual on a sigma of rank 7 of 8 (variable 7 duplicates 0): only a
    # start holding both is finite, and it swaps one out to reach -inf.
    det = rand_psd(more, 8)
    det[7], det[:, 7] = det[0], det[:, 0]
    # Variable 0 is 10 x variable 1 plus variable 2 plus noise of variance
    # about 1e-9, and variable 9 duplicates 3.  Built in ascending order, a
    # start holding 0, 1 and 2 stays on the stack, also when 0, whose pivot
    # on 1 and 2 is under the rank rule, leaves it; a start holding 3 and 9
    # is refused while it is built, and so is an accepted swap of 3 in next
    # to 9.
    g = more.standard_normal((10, 10))
    g[0] = g[2] + 10.0 * g[1] + np.sqrt(1e-9) * g[0]
    near = g @ g.T / 10
    near[9], near[:, 9] = near[3], near[:, 3]
    # FrobResidual on a sigma of rank 8 of 10 whose variable 9 duplicates 0:
    # restart 1 of seed 1 starts on both, so it is refused while it is built
    # and walks alone.
    frob = rand_psd(more, 10, rank=8)
    frob[9], frob[:, 9] = frob[0], frob[:, 0]
    cases = [
        (rand_psd(rng, 10), SearchConfig(k=4, criterion=css(10, 4), restarts=4, seed=17), None),
        (rand_psd(rng, 12), SearchConfig(k=5, criterion=diag_det, restarts=3, seed=2), None),
        (rand_psd(rng, 11), SearchConfig(k=4, criterion=iso, restarts=6, seed=5), None),
        (dup, SearchConfig(k=5, criterion=diag_det, restarts=6, seed=8), None),
        (rand_psd(rng, 12), SearchConfig(k=5, criterion=diag_det, restarts=5, max_sweeps=1, seed=4), None),
        # a budget of two restarts' temporaries splits 7 restarts into 4 groups
        (rand_psd(rng, 11), SearchConfig(k=4, criterion=iso, restarts=7, seed=9), 2 * (8**2 + 8 * 11)),
        (cc, SearchConfig(k=3, criterion=Criterion(CriterionKind.CANON_CORR, p=9, k=3), restarts=5, seed=0), None),
        (det, SearchConfig(k=3, criterion=Criterion(CriterionKind.DET_RESIDUAL, p=8, k=3), restarts=6, seed=9), None),
        (near, SearchConfig(k=4, criterion=Criterion(CriterionKind.ISO_LRT, p=10, k=4), restarts=8, seed=1), None),
        (frob, SearchConfig(k=4, criterion=Criterion(CriterionKind.FROB_RESIDUAL, p=10, k=4), restarts=6, seed=1), None),
        # CssTrace's 5 restarts in groups of two, two and one
        (rand_psd(more, 10), SearchConfig(k=4, criterion=css(10, 4), restarts=5, seed=3), 2 * (7**2 + 8 * 10)),
        (tie, SearchConfig(k=1, criterion=css(8, 1), restarts=4, seed=14), None),
    ]
    stopped_early = 0
    for sigma, cfg, budget in cases:
        runs, expected = _single_runs(sigma, cfg)
        best = min(run.objective for run in runs)
        first = next(run for run in runs if run.objective == best)
        with monkeypatch.context() as m:
            if budget is not None:
                m.setattr(search, "STACK_BUDGET", budget)
                assert search._group_size(cfg.criterion) == 2
            res, decisions = _swap_by_restart(m, sigma, cfg)
        assert _outcome(res) == _outcome(first)
        assert [(s.sweeps, s.accepted, s.objective) for s in res.restarts] == [
            (run.sweeps_used, len(run.trajectory) - 1, run.objective) for run in runs
        ]
        # each restart makes the first n decisions it makes run alone; one
        # that stops on a confirmed optimum skips only keeps
        for stats, got, want in zip(res.restarts, decisions, expected):
            n = len(got)
            assert n <= len(want) and all(_same_decision(a, b) for a, b in zip(got, want))
            assert all(incumbent == picked for _, incumbent, picked, _, _ in want[n:])
            assert n == len(want) or stats.known_optimum
        stopped_early += any(len(got) < len(want) for got, want in zip(decisions, expected))
        if sigma is cc:  # one set reached in two orders, one order twice
            assert len({tuple(sorted(run.subset)) for run in runs}) < len({run.subset for run in runs}) < len(runs)
            assert len({run.objective for run in runs}) == len({tuple(sorted(run.subset)) for run in runs})
        if sigma is dup or sigma is det:  # some restart starts finite and ends at -inf
            assert any(run.trajectory[0] > -np.inf and run.trajectory[-1] == -np.inf for run in runs)
        if sigma is frob:  # restart 1 starts on both copies of variable 0
            assert {0, 9} <= set(np.random.default_rng(cfg.seed + 1).choice(10, size=4, replace=False).tolist())
        if cfg.max_sweeps == 1:  # some restart accepts a swap, so the cap stops it
            assert any(run.restarts[0].accepted > 0 for run in runs)
    assert [run.subset for run in runs] == [(1,), (0,), (0,), (0,)]
    assert len({run.objective for run in runs}) == 1  # an exact tie
    assert res.subset == (1,)  # the lowest restart wins
    assert stopped_early >= 3


def test_swap_stops_restarts_on_confirmed_optima(monkeypatch):
    # A restart whose set another restart confirmed (kept k positions in a
    # row) stops there.  In one lockstep group and in groups of one, swap
    # returns what its restarts reach run alone, and each restart the
    # sweeps, swaps and objective it reports run alone.
    dup = rand_psd(np.random.default_rng(0), 6)
    dup[5], dup[:, 5] = dup[0], dup[:, 0]
    diag_det = Criterion(CriterionKind.DIAG_DET, p=6, k=2)
    cases = [
        # one sweep: restarts that swap into a set confirmed in it report it
        (rand_psd(np.random.default_rng(3), 8),
         SearchConfig(k=3, criterion=css(8, 3), restarts=5, seed=0, max_sweeps=1),
         lambda s: s.known_optimum and s.accepted > 0, True),
        # variable 5 duplicates 0: a start holding both is -inf and confirmed,
        # and a restart that swaps into it arrives at a perfect fit
        (dup, SearchConfig(k=2, criterion=diag_det, restarts=4, seed=2),
         lambda s: s.known_optimum and s.accepted > 0 and s.objective == -np.inf, True),
        (rand_psd(np.random.default_rng(0), 8), SearchConfig(k=1, criterion=css(8, 1), restarts=4, seed=1),
         lambda s: s.known_optimum and s.accepted > 0, True),
        # restart 3 starts on the set restart 0 confirmed in an earlier
        # group; in one group no start can be confirmed before it is kept
        (rand_psd(np.random.default_rng(0), 6), SearchConfig(k=3, criterion=css(6, 3), restarts=4, seed=3),
         lambda s: s.known_optimum and s.accepted == 0, False),
    ]
    # each case's kind of stop, and whether one lockstep group shows it too
    for sigma, cfg, stopped, lockstep in cases:
        runs, _ = _single_runs(sigma, cfg)
        assert not any(run.restarts[0].known_optimum for run in runs)
        first = next(run for run in runs if run.objective == min(r.objective for r in runs))
        assert search._group_size(cfg.criterion) >= cfg.restarts
        results = [swap(sigma, cfg)]
        with monkeypatch.context() as m:
            m.setattr(search, "STACK_BUDGET", 1)
            assert search._group_size(cfg.criterion) == 1
            results.append(swap(sigma, cfg))
        for res in results:
            assert _outcome(res) == _outcome(first)
            assert [(s.sweeps, s.accepted, s.objective) for s in res.restarts] == [
                (run.sweeps_used, len(run.trajectory) - 1, run.objective) for run in runs
            ]
        assert [any(map(stopped, res.restarts)) for res in results] == [lockstep, True]
    # restart 0 confirms the set, 1 and 2 swap into it and 3 starts on it
    assert [s.known_optimum for s in results[1].restarts] == [False, True, True, True]


def test_swap_stop_rule_saves_scored_rows(monkeypatch):
    # Four CssTrace restarts on a planted sigma score fewer rows than the
    # same four run alone, with the same outcome.
    sigma = _planted_sigma(60, 8, np.random.default_rng([1, 1]))
    cfg = SearchConfig(k=8, criterion=css(60, 8), restarts=4, seed=1)
    rows = []
    score_stack = criteria.score_stack

    def counting_score_stack(crit, stack):
        rows.append(len(stack.subset))
        return score_stack(crit, stack)

    monkeypatch.setattr(criteria, "score_stack", counting_score_stack)
    runs, _ = _single_runs(sigma, cfg)
    alone = sum(rows)
    rows.clear()
    res = swap(sigma, cfg)
    first = next(run for run in runs if run.objective == min(r.objective for r in runs))
    assert _outcome(res) == _outcome(first)
    assert [(s.sweeps, s.accepted, s.objective) for s in res.restarts] == [
        (run.sweeps_used, len(run.trajectory) - 1, run.objective) for run in runs
    ]
    assert any(s.known_optimum for s in res.restarts)
    assert sum(rows) < alone


def _planted_sigma(p, k_star, rng):
    """A planted-factor correlation matrix: ``k_star`` planted variables
    with equicorrelation 0.2, every other one loading strongly on one of
    them, on a second weakly with probability 0.3, plus noise; the
    variables in random order."""
    m = p - k_star
    w = np.zeros((m, k_star))
    primary = rng.integers(0, k_star, m)
    w[np.arange(m), primary] = rng.uniform(0.7, 0.95, m) * rng.choice([-1.0, 1.0], m)
    second = rng.random(m) < 0.3
    other = (primary + rng.integers(1, k_star, m)) % k_star
    n2 = int(second.sum())
    w[np.arange(m)[second], other[second]] += rng.uniform(0.2, 0.4, n2) * rng.choice([-1.0, 1.0], n2)
    noise = np.concatenate([np.zeros(k_star), rng.uniform(0.2, 0.5, m)])
    load = np.vstack([np.eye(k_star), w])
    order = np.argsort(rng.permutation(p))  # generated variable perm[t] sits at position t
    load, noise = load[order], noise[order]
    sigma = load @ (0.8 * np.eye(k_star) + 0.2) @ load.T + np.diag(noise)
    scale = np.sqrt(np.diag(sigma))
    sigma = sigma / np.outer(scale, scale)
    sigma = (sigma + sigma.T) / 2.0
    np.fill_diagonal(sigma, 1.0)
    return sigma


_THREADS_SCRIPT = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from csskit import search
from csskit.criteria import Criterion, CriterionKind
sigma = np.load(sys.argv[2])
for kind, k, restarts in json.loads(sys.argv[3]):
    crit = Criterion(CriterionKind(kind), p=sigma.shape[0], k=k)
    for res in (search.greedy(sigma, search.SearchConfig(k=k, criterion=crit)),
                search.swap(sigma, search.SearchConfig(k=k, criterion=crit, restarts=restarts, seed=1))):
        print(json.dumps([kind, list(res.subset), res.objective, [r.objective for r in res.restarts]]))
"""


def _greedy_and_swap_under_one_and_two_threads(tmp_path, sigma, runs):
    """Greedy and swap on ``sigma`` for each ``(kind, k, restarts)`` of
    ``runs``, under 1 and 2 BLAS threads: one list of ``[kind, subset,
    objective, restart objectives]`` per thread count.  The thread count is
    read when numpy loads, so each is a process of its own."""
    path = str(tmp_path / "sigma.npy")
    np.save(path, sigma)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, src, path, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outs.append([json.loads(line) for line in proc.stdout.splitlines()])
    assert [out[0] for out in outs[0]] == [kind for kind, _, _ in runs for _ in range(2)]
    for (kind, subset, objective, restarts), (_, subset2, objective2, restarts2) in zip(*outs):
        assert subset == subset2, kind
        assert objective == pytest.approx(objective2, rel=1e-12, abs=0.0), kind
        assert restarts == pytest.approx(restarts2, rel=1e-12, abs=0.0), kind
    return outs


def test_canon_corr_swap_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # The three restarts of swap reach one set, each in another order; read
    # in the given order, their objectives differed in the last bits and
    # the winner with the thread count.
    sigma = _planted_sigma(120, 6, np.random.default_rng([1, 1]))
    outs = _greedy_and_swap_under_one_and_two_threads(tmp_path, sigma, [("CanonCorr", 6, 3)])
    swap_restarts = outs[0][1][3]
    assert len(set(swap_restarts)) == 1  # one set, an exact tie: restart 0 wins


def test_every_criterion_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # At the reference scale, p = 774 with 30 planted variables, greedy and
    # a one-restart swap pick the same subsets, in the same order, under 1
    # and 2 BLAS threads, and their objectives agree to 1e-12 (DetResidual's
    # and CanonCorr's differ in the last bits).  DiagDet, DetResidual and
    # FrobResidual run at k = 8 to keep the test to a few seconds.
    sigma = _planted_sigma(774, 30, np.random.default_rng([1, 1]))
    runs = [("CssTrace", 30, 1), ("IsoLrt", 30, 1), ("CanonCorr", 30, 1)]
    runs += [("DiagDet", 8, 1), ("DetResidual", 8, 1), ("FrobResidual", 8, 1)]
    _greedy_and_swap_under_one_and_two_threads(tmp_path, sigma, runs)


def test_exhaustive_refuses_an_indefinite_sigma():
    # Variables 0-2 have an eigenvalue of -0.81 on their variances.  A
    # 2-subset's own blocks can be PSD, so evaluate alone ranks them (under
    # CanonCorr down to -17.3, a sum of two squared canonical correlations
    # past 2); exhaustive factors sigma once and refuses it under every
    # criterion.  A singular sigma is still accepted.
    sigma = np.array([[1.0, 0.9, 0.9, 0.2], [0.9, 1.0, -0.9, 0.1], [0.9, -0.9, 1.0, 0.3], [0.2, 0.1, 0.3, 1.0]])
    x = np.random.default_rng(1).standard_normal((6, 2))
    for kind in CriterionKind:
        with pytest.raises(NotPSD):
            exhaustive(sigma, SearchConfig(k=2, criterion=Criterion(kind, p=4, k=2)))
        res = exhaustive(x @ x.T, SearchConfig(k=3, criterion=Criterion(kind, p=6, k=3)))
        assert len(res.subset) == 3


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


def test_selection_follows_a_relabeling_of_the_variables():
    # Relabel the variables of a rescaled sigma: greedy picks the relabeled
    # variables in the same order, and swap from the relabeled start ends on
    # the relabeled subset.  At rank p - 2 a subset of k >= rank fits
    # perfectly, and its last picks tie in every candidate and go to the
    # lowest index, so there the objective is asserted instead.  CanonCorr
    # is left out on rank-deficient sigma: its scores there are roundoff
    # ties, which reach greedy's picks (ROADMAP items 7 and 9).
    rng = np.random.default_rng(167)
    for t in range(56):
        p = int(rng.integers(5, 11))
        rank = p if t % 2 == 0 else p - 2
        d = 10.0 ** rng.uniform(-2.0, 2.0, p)
        sigma = d[:, None] * rand_psd(rng, p, rank) * d[None, :]
        perm = rng.permutation(p)
        inv = np.argsort(perm)  # variable v of sigma is inv[v] of moved
        moved = sigma[np.ix_(perm, perm)]
        k = int(rng.integers(1, p - 1 if rank == p else p))
        start = rng.permutation(p)[:k]
        for kind in CriterionKind:
            if kind == CriterionKind.CANON_CORR and rank < p:
                continue
            cfg = SearchConfig(k=k, criterion=Criterion(kind, p=p, k=k))
            pairs = [
                (greedy(sigma, cfg), greedy(moved, cfg)),
                (swap(sigma, cfg, init=start.tolist()), swap(moved, cfg, init=inv[start].tolist())),
            ]
            for base, got in pairs:
                if k < rank:
                    assert got.subset == tuple(inv[list(base.subset)].tolist()), (t, kind)
                elif kind == CriterionKind.CSS_TRACE:
                    assert max(base.objective, got.objective) <= 1e-9 * np.trace(sigma)
                elif kind == CriterionKind.FROB_RESIDUAL:
                    assert max(base.objective, got.objective) <= (1e-9 * np.trace(sigma)) ** 2
                else:
                    assert base.objective == got.objective == -np.inf


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
    # every count is an integer and the seed is non-negative, refused with a
    # typed error where the config is made (once a TypeError or numpy's
    # ValueError inside the search)
    for bad in (dict(k=2.0), dict(restarts=2.0), dict(max_sweeps=3.5), dict(seed=1.0),
                dict(seed=-1), dict(restarts=True)):
        with pytest.raises(DimMismatch, match="integer|seed"):
            SearchConfig(**{"k": 2, "criterion": css(4, 2), **bad})
    assert SearchConfig(k=np.int64(2), criterion=css(4, 2), seed=np.int64(3)).seed == 3


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


def test_search_state_and_evaluate_share_the_pivot_rule():
    # Near the cutoff the search state and evaluate decide singularity by
    # one pivot test: with 1 - rho^2 = 3e-10 variable 1 adds rank to
    # variable 0 in both, so greedy's trajectory and its from-scratch
    # objective agree (once the state read -21.93 and evaluate -inf).
    rho = np.sqrt(1.0 - 3e-10)
    sigma = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cfg = SearchConfig(k=2, criterion=Criterion(CriterionKind.DIAG_DET, p=3, k=2))
    res = greedy(sigma, cfg)
    assert res.subset == (0, 1)
    assert_allclose(res.trajectory, [np.log(3e-10)] * 2, rtol=1e-5)
    assert_allclose(res.objective, np.log(3e-10), rtol=1e-5)
    assert res.drift == 0.0
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


def test_swap_init_is_checked_as_an_index_set():
    rng = np.random.default_rng(8)
    sigma = rand_psd(rng, 6)
    cfg = SearchConfig(k=2, criterion=css(6, 2))
    for bad in ([0.5, 3.99], [1, 1], [0, 6]):
        with pytest.raises(DimMismatch):
            swap(sigma, cfg, init=bad)
    got = swap(sigma, cfg, init=np.array([0, 3]))
    assert got == swap(sigma, cfg, init=[0, 3])
    assert all(type(i) is int for i in got.subset)
    json.dumps(list(got.subset))  # numpy integers would be refused


def _peak_bytes(fn):
    """Bytes allocated at the peak of ``fn()`` beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_css_search_holds_sigma_once():
    # Beside sigma, a CssTrace search holds O(kp) per state: its check of
    # sigma makes no p x p temporary, and greedy makes none either.
    p, k = 500, 10
    rng = np.random.default_rng(191)
    sigma = rand_psd(rng, p, rank=60) + 0.1 * np.eye(p)
    peak = _peak_bytes(lambda: criteria.init_state(css(p, k), sigma))
    assert peak < sigma.nbytes / 4, (peak, sigma.nbytes)
    peak = _peak_bytes(lambda: greedy(sigma, SearchConfig(k=k, criterion=css(p, k))))
    assert peak < sigma.nbytes / 2, (peak, sigma.nbytes)


def test_swap_drops_the_stack_before_it_moves():
    # A one-restart CssTrace swap holds about two factors beside sigma at
    # its peak: the retracted stack and the one it grows into.  The stack
    # from before a swap is dropped before the advance, not kept alive
    # through take and put.
    p, k = 500, 30
    rng = np.random.default_rng(193)
    sigma = rand_psd(rng, p, rank=60) + 0.1 * np.eye(p)
    factor = (k * 2 * p + 2 * p) * 8  # L with sigma L, diag R and diag R^2
    out = []
    peak = _peak_bytes(lambda: out.append(swap(sigma, SearchConfig(k=k, criterion=css(p, k), seed=1))))
    assert out[0].restarts[0].accepted > 0
    assert peak < 2.5 * factor, (peak / factor, factor)
