"""Selection criteria: reference evaluation, incremental scoring, state moves."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import criteria, sizesel, symmat
from csskit.criteria import (
    Criterion,
    CriterionKind,
    advance,
    cc_sum,
    evaluate,
    init_state,
    retract,
    score_all,
    state_from_subset,
)
from csskit.errors import DimMismatch, NotPSD

ALL_KINDS = list(CriterionKind)


def rand_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    g = rng.standard_normal((p, rank))
    return g @ g.T / p


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


def test_css_trace_hand_values():
    crit = Criterion(CriterionKind.CSS_TRACE, p=3, k=1)
    assert evaluate(crit, np.eye(3), (0,)) == pytest.approx(2.0)
    crit2 = Criterion(CriterionKind.CSS_TRACE, p=2, k=1)
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert evaluate(crit2, sigma, (0,)) == pytest.approx(0.75)
    assert evaluate(crit2, sigma, ()) == pytest.approx(2.0)


def test_score_all_diagonal():
    # On diag(1,2,3) from the empty subset the score of candidate i is
    # -sigma_ii: picking the largest variance first.
    crit = Criterion(CriterionKind.CSS_TRACE, p=3, k=2)
    state = init_state(crit, np.diag([1.0, 2.0, 3.0]))
    cands, scores = score_all(crit, state)
    assert list(cands) == [0, 1, 2]
    assert_allclose(scores, [-1.0, -2.0, -3.0])


def test_criterion_validation():
    with pytest.raises(DimMismatch):
        Criterion(CriterionKind.CSS_TRACE, p=3, k=0)
    with pytest.raises(DimMismatch):
        Criterion(CriterionKind.CSS_TRACE, p=3, k=4)
    with pytest.raises(DimMismatch):
        Criterion(CriterionKind.ISO_LRT, p=3, k=3)
    # p and k are integers: a float is refused, not truncated or compared
    for p, k in ((8, 2.5), (8, 2.0), (8.0, 2), (8, True), (np.float64(8.0), 2), (8, "2")):
        with pytest.raises(DimMismatch, match="not an integer"):
            Criterion(CriterionKind.CSS_TRACE, p=p, k=k)
    assert Criterion(CriterionKind.CSS_TRACE, p=np.int64(8), k=2).k == 2


def test_state_checks_sigma_and_each_move():
    crit = Criterion(CriterionKind.CSS_TRACE, p=5, k=2)
    with pytest.raises(NotPSD):
        init_state(crit, np.diag([1.0, -1e-3, 2.0, 1.0, 1.0]))
    with pytest.raises(DimMismatch):
        init_state(crit, np.eye(4))
    sigma = rand_psd(np.random.default_rng(103), 5)
    state = state_from_subset(crit, sigma, [3])
    # out of range below and above, already selected, not an integer (2.9
    # once appended 2)
    for i in (-1, 5, 3, 2.9):
        with pytest.raises(DimMismatch):
            advance(crit, state, sigma, i)
    assert advance(crit, state, sigma, np.int64(2)).subset == (3, 2)
    for position in (1, 0.5):  # position k, not an integer
        with pytest.raises(DimMismatch):
            retract(crit, state, sigma, position)
    with pytest.raises(DimMismatch):
        evaluate(crit, sigma, [0.9, 2.5])  # once the objective of (0, 2)
    with pytest.raises(DimMismatch):
        cc_sum(np.float64(2.0), [0], [1])
    with pytest.raises(DimMismatch):
        state_from_subset(crit, sigma, [1, 1])


def test_css_trace_equals_least_squares():
    # trace of the residual covariance == the best rank-restricted
    # reconstruction error of the data, solved directly by least squares.
    rng = np.random.default_rng(41)
    x = rng.standard_normal((40, 6))
    x -= x.mean(axis=0)
    sigma = x.T @ x / 40
    crit = Criterion(CriterionKind.CSS_TRACE, p=6, k=2)
    for subset in [(1, 4), (0, 5), (2, 3)]:
        coef, *_ = np.linalg.lstsq(x[:, list(subset)], x, rcond=None)
        resid = x - x[:, list(subset)] @ coef
        want = np.sum(resid**2) / 40
        assert evaluate(crit, sigma, subset) == pytest.approx(want, abs=1e-8)


def test_canon_corr_closed_form_on_pd():
    # For nonsingular sigma the pseudo-inverses reduce to plain inverses.
    rng = np.random.default_rng(43)
    sigma = rand_psd(rng, 6) + 0.5 * np.eye(6)
    crit = Criterion(CriterionKind.CANON_CORR, p=6, k=2)
    u = [1, 4]
    c = [0, 2, 3, 5]
    cross = sigma[np.ix_(u, c)]
    want = -np.trace(
        np.linalg.inv(sigma[np.ix_(u, u)])
        @ cross
        @ np.linalg.inv(sigma[np.ix_(c, c)])
        @ cross.T
    )
    assert evaluate(crit, sigma, u) == pytest.approx(want, abs=1e-8)
    # the objective is symmetric in the roles of the two blocks
    crit4 = Criterion(CriterionKind.CANON_CORR, p=6, k=4)
    assert evaluate(crit4, sigma, c) == pytest.approx(want, abs=1e-8)


def test_canon_corr_boundary_values():
    crit = Criterion(CriterionKind.CANON_CORR, p=3, k=3)
    sigma = np.eye(3)
    assert evaluate(crit, sigma, ()) == 0.0
    assert evaluate(crit, sigma, (0, 1, 2)) == 0.0


def test_cc_sum_values():
    assert cc_sum(np.eye(6), (0, 1), (3, 4)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(149)
    g = rng.standard_normal((9, 6))
    sigma = g.T @ g / 9
    # a set against itself: one perfect correlation per coordinate
    assert cc_sum(sigma, (1, 4), (1, 4)) == pytest.approx(2.0, abs=1e-8)
    assert cc_sum(sigma, (), (1, 2)) == 0.0


def test_det_residual_evaluate_takes_one_log_det(monkeypatch):
    # DetResidual reads the complement block's log-determinant only; the
    # selected block's is read by DiagDet and IsoLrt.
    sigma = rand_psd(np.random.default_rng(157), 8)
    shapes = []
    log_det = symmat.log_det
    monkeypatch.setattr(symmat, "log_det", lambda m, *args: shapes.append(np.shape(m)) or log_det(m, *args))
    value = evaluate(Criterion(CriterionKind.DET_RESIDUAL, p=8, k=3), sigma, (1, 4, 6))
    assert shapes == [(5, 5)]
    assert np.isfinite(value)


def test_canon_corr_evaluate_is_negated_cc_sum():
    # evaluate's CanonCorr branch is cc_sum, bit for bit, on full-rank and
    # rank-deficient sigma alike; an empty side gives +0.0, not -0.0.
    rng = np.random.default_rng(151)
    for _ in range(60):
        p = int(rng.integers(3, 10))
        sigma = rand_psd(rng, p, rank=int(rng.integers(1, p + 1)))
        k = int(rng.integers(1, p))
        u = tuple(rng.permutation(p)[:k].tolist())
        comp = [j for j in range(p) if j not in u]
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=k)
        assert evaluate(crit, sigma, u) == -cc_sum(sigma, u, comp)
    for subset in [(), (0, 1, 2)]:
        value = evaluate(Criterion(CriterionKind.CANON_CORR, p=3, k=3), np.eye(3), subset)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0


def test_det_residual_equals_determinant_ratio():
    # log det of the complement residual block == log(det sigma / det sigma_U)
    # for nonsingular sigma.
    rng = np.random.default_rng(47)
    sigma = rand_psd(rng, 5) + 0.5 * np.eye(5)
    crit = Criterion(CriterionKind.DET_RESIDUAL, p=5, k=2)
    u = [0, 3]
    want = np.log(np.linalg.det(sigma)) - np.log(
        np.linalg.det(sigma[np.ix_(u, u)])
    )
    assert evaluate(crit, sigma, u) == pytest.approx(want, abs=1e-8)


def test_pivot_determinant_identity():
    # det(sigma_{U+i}) = det(sigma_U) * residual_ii, the update the
    # selected-block log-determinant cache relies on.
    rng = np.random.default_rng(53)
    sigma = rand_psd(rng, 6) + 0.3 * np.eye(6)
    u = [2, 5]
    res = symmat.residual_covariance(sigma, u)
    for i in [0, 1, 3, 4]:
        v = u + [i]
        lhs = np.linalg.det(sigma[np.ix_(v, v)])
        rhs = np.linalg.det(sigma[np.ix_(u, u)]) * res[i, i]
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_diag_det_iso_lrt_match_statistics():
    # n * (objective - log det sigma) reproduces the goodness-of-fit
    # statistics: the criteria and the tests minimize the same quantity.
    rng = np.random.default_rng(59)
    n = 37
    sigma = rand_psd(rng, 7) + 0.4 * np.eye(7)
    ld = symmat.log_det(sigma)
    for k in (1, 3):
        u = tuple(sorted(rng.choice(7, size=k, replace=False).tolist()))
        dd = Criterion(CriterionKind.DIAG_DET, p=7, k=k)
        il = Criterion(CriterionKind.ISO_LRT, p=7, k=k)
        assert n * (evaluate(dd, sigma, u) - ld) == pytest.approx(
            sizesel.stat_T(sigma, n, u), abs=1e-8
        )
        assert n * (evaluate(il, sigma, u) - ld) == pytest.approx(
            sizesel.stat_Ttilde(sigma, n, u), abs=1e-8
        )


def test_diag_det_perfect_fit_sentinel():
    # A variable exactly reproduced by the selection zeroes its residual
    # diagonal: the objective collapses to -inf rather than raising.
    sigma = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    crit = Criterion(CriterionKind.DIAG_DET, p=3, k=1)
    assert evaluate(crit, sigma, (0,)) == -np.inf


def test_score_all_perfect_fits_match_evaluate():
    # On rank-deficient sigma, score_all marks a candidate -inf exactly when
    # evaluate does, whatever moves led to the state: a perfect fit is
    # decided by the rank rule, not by roundoff in the residual.
    rng = np.random.default_rng(83)
    for t in range(60):
        p = int(rng.integers(4, 9))
        sigma = rand_psd(rng, p, rank=max(2, p - 2)) * (1e-9, 1.0, 1e9)[t % 3]
        for kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):
            crit = Criterion(kind, p=p, k=3)
            state = init_state(crit, sigma)
            for _ in range(8):
                k = len(state.subset)
                if k == 3 or (k and rng.random() < 0.4):
                    state = retract(crit, state, sigma, int(rng.integers(k)))
                else:
                    outside = [j for j in range(p) if j not in state.subset]
                    state = advance(crit, state, sigma, int(rng.choice(outside)))
                cands, scores = score_all(crit, state)
                vals = [evaluate(crit, sigma, state.subset + (int(i),)) for i in cands]
                assert np.array_equal(np.isneginf(scores), np.isneginf(vals)), (
                    t, kind, state.subset, scores, vals,
                )


def _assert_argmin_attained(crit, sigma, state, tag):
    """The incremental pick attains the reference minimum; exact ties
    (equal scores) resolve to the lowest index."""
    subset = state.subset
    cands, scores = score_all(crit, state)
    pos = int(np.argmin(scores))
    vals = np.array([evaluate(crit, sigma, subset + (int(i),)) for i in cands])
    lo = float(np.min(vals))
    if lo == -np.inf:
        assert vals[pos] == -np.inf, tag
    else:
        slack = 1e-9 * max(1.0, abs(lo))
        assert vals[pos] <= lo + slack, tag
    ties = np.flatnonzero(scores == scores[pos])
    assert pos == ties[0]


def test_argmin_consistency_sampled():
    # score_all ranks candidates exactly as the reference evaluation does
    # (the full 200-instance sweep runs in the acceptance gate).
    rng = np.random.default_rng(61)
    checked = 0
    for t in range(40):
        p = int(rng.integers(4, 9))
        rank = p if t % 3 else max(2, p - 2)
        sigma = rand_psd(rng, p, rank)
        size = int(rng.integers(0, 4))
        subset = tuple(rng.permutation(p)[:size].tolist())
        for kind in ALL_KINDS:
            k_param = max(1, min(p - 1, size + 1))
            crit = Criterion(kind, p=p, k=k_param)
            if kind == CriterionKind.DET_RESIDUAL and rank < p:
                continue  # every candidate hits the -inf sentinel
            state = state_from_subset(crit, sigma, subset)
            _assert_argmin_attained(crit, sigma, state, (t, kind, subset))
            checked += 1
    assert checked > 100

    # CanonCorr scores read sigma directly, so a state reached through a
    # retract, an extreme scale or an exact duplicate column must rank
    # candidates the same way.  Duplicates are what exercise the rank
    # gates: a duplicated variable never adds rank to its twin.
    for t in range(60):
        p = int(rng.integers(5, 9))
        rank = p if t % 2 else p - 2
        sigma = rand_psd(rng, p, rank) * (1e-12, 1.0, 1e12)[t % 3]
        if t % 5 == 0:
            sigma[:, 1] = sigma[:, 0]
            sigma[1, :] = sigma[0, :]
        size = int(rng.integers(0, 4))
        perm = rng.permutation(p).tolist()
        subset = tuple(perm[:size])
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=size + 1)
        if t % 4 < 2:
            # advance one extra variable at a random position, retract it
            at = int(rng.integers(0, size + 1))
            grown = subset[:at] + (perm[size],) + subset[at:]
            state = retract(crit, state_from_subset(crit, sigma, grown), sigma, at)
            assert state.subset == subset
        else:
            state = state_from_subset(crit, sigma, subset)
        _assert_argmin_attained(crit, sigma, state, (t, subset))


def test_canon_corr_pick_does_not_depend_on_units():
    # Canonical correlations do not change when one variable is rescaled,
    # so the CanonCorr pick on D sigma D must attain the evaluate argmin on
    # sigma.  The reference is taken on the unscaled matrix because
    # evaluate's eigenvalue cutoff, relative to the largest eigenvalue, is
    # not itself unit-free once variances spread over many decades.
    #
    # Hand case: x2 = 1000 (x0 + x1) lies in the span of the rest of the
    # complement but has a large variance; it is x3's unique best partner.
    load = np.zeros((5, 4))
    load[0, 0] = load[1, 1] = load[4, 2] = 1.0
    load[2, :2] = 1000.0
    load[3] = (1.0, -1.0, 0.0, 0.5)
    sigma = load @ load.T
    crit = Criterion(CriterionKind.CANON_CORR, p=5, k=2)
    cands, scores = score_all(crit, state_from_subset(crit, sigma, (3,)))
    vals = [evaluate(crit, sigma, (3, int(i))) for i in cands]
    assert cands[np.argmin(scores)] == cands[np.argmin(vals)] == 2

    rng = np.random.default_rng(83)
    for t in range(60):
        p = int(rng.integers(5, 9))
        base = rand_psd(rng, p, p if t % 2 else p - 2)
        if t % 3 == 0:
            base[:, 1] = base[:, 0]
            base[1, :] = base[0, :]
        d = 10.0 ** rng.uniform(-3.0, 3.0, p)
        sigma = d[:, None] * base * d[None, :]
        size = int(rng.integers(0, 4))
        subset = tuple(rng.permutation(p)[:size].tolist())
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=size + 1)
        cands, scores = score_all(crit, state_from_subset(crit, sigma, subset))
        vals = np.array([evaluate(crit, base, subset + (int(i),)) for i in cands])
        lo = float(np.min(vals))
        assert vals[int(np.argmin(scores))] <= lo + 1e-9 * max(1.0, abs(lo)), (t, subset)


def test_canon_corr_rank_indicator_ignores_roundoff():
    # Once the subset spans the range of a rank-2 sigma, every residual
    # entry is roundoff; no candidate may be credited with added rank.
    rng = np.random.default_rng(89)
    crit = Criterion(CriterionKind.CANON_CORR, p=5, k=3)
    for t in range(40):
        g = rng.standard_normal((5, 2))
        g[3] = g[1]
        sigma = g @ g.T / 5 * 10.0 ** rng.uniform(-6.0, 6.0)
        state = state_from_subset(crit, sigma, (2, 4))
        cands, scores = score_all(crit, state)
        vals = np.array([evaluate(crit, sigma, (2, 4, int(i))) for i in cands])
        assert np.ptp(scores - vals) < 1e-8, t
        _assert_argmin_attained(crit, sigma, state, t)


def test_advance_retract_roundtrip():
    # DiagDet's objective reads log det(sigma_S) from the factor
    rng = np.random.default_rng(67)
    sigma = rand_psd(rng, 8)
    for kind in (CriterionKind.CSS_TRACE, CriterionKind.DIAG_DET):
        crit = Criterion(kind, p=8, k=4)
        state = state_from_subset(crit, sigma, (1, 6, 3))
        state = retract(crit, state, sigma, 1)  # drop variable 6
        assert state.subset == (1, 3)
        want_res = symmat.residual_covariance(sigma, (1, 3))
        assert rel_err(state.residual, want_res) < 1e-8
        state = advance(crit, state, sigma, 0)
        assert state.subset == (1, 3, 0)
        want = evaluate(crit, sigma, (1, 3, 0))
        assert criteria.objective_from_state(crit, state) == pytest.approx(want, abs=1e-8)


def test_retract_dependent_column():
    # Of two identical variables the second joins on the side list.  Once
    # either leaves, the state must score and advance like a fresh one.
    sigma = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
    for kind in CriterionKind:
        crit = Criterion(kind, p=3, k=2)
        state = state_from_subset(crit, sigma, (0, 1))
        for position, kept in ((1, (0,)), (0, (1,))):
            got = retract(crit, state, sigma, position)
            want = state_from_subset(crit, sigma, kept)
            assert got.subset == want.subset and got.ranked == want.ranked
            want_obj = criteria.objective_from_state(crit, want)
            assert criteria.objective_from_state(crit, got) == pytest.approx(want_obj, abs=1e-10)
            assert_allclose(got.residual, want.residual, atol=1e-10)
            (got_cands, got_scores), (want_cands, want_scores) = score_all(crit, got), score_all(crit, want)
            assert np.array_equal(got_cands, want_cands)
            assert_allclose(got_scores, want_scores, atol=1e-10)
            got, want = advance(crit, got, sigma, 2), advance(crit, want, sigma, 2)
            assert got.ranked == want.ranked
            want_obj = criteria.objective_from_state(crit, want)
            assert criteria.objective_from_state(crit, got) == pytest.approx(want_obj, abs=1e-10)


def test_no_move_pseudo_inverts(monkeypatch):
    # The state's one factorization serves every move: advancing a variable
    # that adds no rank, and retracting from a state with a side list,
    # pseudo-invert nothing.
    g = np.random.default_rng(83).standard_normal((6, 5))
    g[4] = g[1]  # variable 4 duplicates variable 1
    sigma = g @ g.T
    calls = []
    pseudo_inverse = symmat.pseudo_inverse
    monkeypatch.setattr(symmat, "pseudo_inverse", lambda m: calls.append(m) or pseudo_inverse(m))
    for kind in CriterionKind:
        crit = Criterion(kind, p=6, k=3)
        state = init_state(crit, sigma)
        for i in (1, 4, 2):
            state = advance(crit, state, sigma, i)
        assert state.ranked == (1, 2)  # 4 is on the side list
        for position in range(3):
            retract(crit, state, sigma, position)
    assert calls == []


def test_canon_corr_scores_without_pinv_add(monkeypatch):
    # CanonCorr reads its block inverses from the state, so no move, score
    # or search updates a block pseudo-inverse; the scores differ from -cc
    # of the grown subset by one constant.
    def refuse(*args):
        raise AssertionError("a block pseudo-inverse was updated")

    monkeypatch.setattr(symmat, "pinv_add", refuse)
    monkeypatch.setattr(symmat, "pinv_remove", refuse)
    rng = np.random.default_rng(79)
    for t in range(20):
        p = int(rng.integers(5, 10))
        sigma = rand_psd(rng, p, p if t % 2 else p - 2)
        subset = tuple(rng.permutation(p)[: int(rng.integers(0, 4))].tolist())
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=len(subset) + 1)
        state = state_from_subset(crit, sigma, subset)
        cands, scores = score_all(crit, state)
        vals = np.array([evaluate(crit, sigma, subset + (int(i),)) for i in cands])
        assert np.ptp(scores - vals) < 1e-8, (t, subset)
    from csskit.search import SearchConfig, greedy, swap

    sigma = rand_psd(rng, 9) + 0.1 * np.eye(9)
    crit = Criterion(CriterionKind.CANON_CORR, p=9, k=3)
    assert init_state(crit, sigma).omega is not None
    greedy(sigma, SearchConfig(k=3, criterion=crit))
    swap(sigma, SearchConfig(k=3, criterion=crit, restarts=3, seed=2))


def test_advance_retract_keep_residual_exactly_symmetric():
    # The residual is formed from its factor as sigma - L L^T, exactly
    # symmetrized, so it is exactly symmetric after any moves.
    rng = np.random.default_rng(71)
    for trial in range(20):
        p = int(rng.integers(4, 30))
        a = rand_psd(rng, p, rank=p if trial % 2 else max(2, p - 3))
        sigma = float(10.0 ** rng.uniform(-6, 6)) * (a + a.T) / 2
        crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=p)
        state = init_state(crit, sigma)
        for _ in range(30):
            k = len(state.subset)
            if k and (k == p or rng.random() < 0.4):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in state.subset]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            assert np.array_equal(state.residual, state.residual.T)


def test_retract_gives_a_side_member_back_its_rank():
    # j = a + b adds no rank to (a, b), so it joins the side list; once a
    # leaves, j adds rank to (b,) and the state must equal a fresh one.
    rng = np.random.default_rng(157)
    g = rng.standard_normal((6, 6))
    g[2] = g[0] + g[1]  # a = 0, b = 1, j = 2
    sigma = g @ g.T / 6
    for kind in ALL_KINDS:
        crit = Criterion(kind, p=6, k=3)
        state = state_from_subset(crit, sigma, (0, 1, 2))
        assert state.ranked == (0, 1)
        if kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):  # the side list makes sigma_S singular
            assert criteria.objective_from_state(crit, state) == -np.inf
        state = retract(crit, state, sigma, 0)
        fresh = state_from_subset(crit, sigma, (1, 2))
        assert state.subset == (1, 2) and sorted(state.ranked) == [1, 2]
        assert rel_err(state.residual, fresh.residual) < 1e-10
        assert rel_err(state.residual, symmat.residual_covariance(sigma, (1, 2))) < 1e-10
        want_obj = criteria.objective_from_state(crit, fresh)
        assert criteria.objective_from_state(crit, state) == pytest.approx(want_obj, rel=1e-8, abs=1e-10)
        cands, scores = score_all(crit, state)
        want_cands, want = score_all(crit, fresh)
        assert np.array_equal(cands, want_cands)
        assert_allclose(scores, want, rtol=1e-8, atol=1e-10, err_msg=kind.value)


def test_factor_moves_match_fresh_residual():
    # Random add/retract sequences, on rank-deficient sigma half the time
    # (side lists, singular blocks) and with one variable in units 1e3
    # times larger: the factor's residual and the diagonals it carries stay
    # within 1e-8 of the fresh ones, relative to sigma's scale (roundoff is
    # absolute: once the subset spans sigma the residual itself is ~0).
    rng = np.random.default_rng(163)
    for t in range(40):
        p = int(rng.integers(5, 41))
        sigma = rand_psd(rng, p, rank=int(rng.integers(2, p)) if t % 2 else p)
        big = int(rng.integers(p))
        sigma[big] *= 1e3
        sigma[:, big] *= 1e3
        crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=p)
        state = init_state(crit, sigma)
        scale = float(np.linalg.norm(sigma))
        for _ in range(3 * p):
            k = len(state.subset)
            if k and (k == p or rng.random() < 0.45):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in state.subset]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            want = symmat.residual_covariance(sigma, state.subset)
            gap = np.linalg.norm(state.residual - want)
            assert gap < 1e-8 * scale, (t, state.subset)
            assert np.max(np.abs(state.factor.diag - want.diagonal())) < 1e-8 * scale
            sq = np.einsum("ij,ij->i", want, want)
            assert np.max(np.abs(state.factor.diag_sq - sq)) < 1e-8 * scale**2


def test_css_trace_scores_a_near_fit_from_its_residual_column():
    # Variable 5 is (0 + 1) up to noise of relative variance 5e-9, and
    # variable 11 is in units 1e3 times larger.  After 60 moves that leave 5
    # out, the carried diag R^2 of 5 is off by 1.5% once 0 and 1 join, so
    # its CssTrace score must come from its residual column instead.
    rng = np.random.default_rng(0)
    p, n = 12, 200
    x = rng.standard_normal((n, p))
    x[:, 5] = x[:, 0] + x[:, 1] + 1e-4 * rng.standard_normal(n)
    x[:, 11] *= 1e3
    sigma = x.T @ x / n
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=4)
    state = init_state(crit, sigma)
    others = [j for j in range(p) if j not in (0, 1, 5)]
    for _ in range(60):
        outside = [j for j in others if j not in state.subset]
        state = advance(crit, state, sigma, int(rng.choice(outside)))
        if len(state.subset) > 3:
            state = retract(crit, state, sigma, int(rng.integers(len(state.subset))))
    state = advance(crit, advance(crit, state, sigma, 0), sigma, 1)
    res = symmat.residual_covariance(sigma, state.subset)
    assert 1e-10 < res[5, 5] / sigma[5, 5] < 1e-5
    cands, scores = score_all(crit, state)
    want = -np.sum(res * res, axis=0)[cands] / res.diagonal()[cands]
    assert_allclose(scores, want, rtol=1e-5)


def test_moves_allocate_no_dense_residual():
    # A CssTrace advance to k=20 and a retract from it, at p=600, each
    # allocate under a quarter of one p x p array (2.9 MB): the residual
    # lives in its factor.
    p, k = 600, 20
    rng = np.random.default_rng(167)
    sigma = rand_psd(rng, p, rank=40) + 0.1 * np.eye(p)
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=k)
    state = state_from_subset(crit, sigma, range(0, 2 * k - 2, 2))
    grown = advance(crit, state, sigma, 1)
    bound = p * p * 8 / 4
    for move in (
        lambda: advance(crit, state, sigma, 1),
        lambda: retract(crit, grown, sigma, 7),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            move()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


def test_objective_from_state_matches_evaluate():
    rng = np.random.default_rng(73)
    sigma = rand_psd(rng, 6) + 0.1 * np.eye(6)
    for kind in ALL_KINDS:
        crit = Criterion(kind, p=6, k=2)
        state = state_from_subset(crit, sigma, (4, 1))
        assert criteria.objective_from_state(crit, state) == pytest.approx(
            evaluate(crit, sigma, (4, 1)), abs=1e-8
        )


def test_canon_corr_scores_are_exact_on_nonsingular_sigma():
    # With sigma^-1 in the state, CanonCorr scores are -cc of the grown
    # subset itself, not values up to one constant, in any units.
    rng = np.random.default_rng(157)
    for t in range(60):
        p = int(rng.integers(4, 12))
        d = 10.0 ** rng.uniform(-3.0, 3.0, p)
        sigma = d[:, None] * rand_psd(rng, p, rank=2 * p) * d[None, :]
        size = int(rng.integers(0, p))
        subset = tuple(rng.permutation(p)[:size].tolist())
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=size + 1)
        state = state_from_subset(crit, sigma, subset)
        assert state.omega is not None
        cands, scores = score_all(crit, state)
        for i, score in zip(cands, scores):
            want = evaluate(crit, sigma, subset + (int(i),))
            assert abs(score - want) <= 1e-9 * max(1.0, abs(want)), (t, subset, i)


def test_canon_corr_objective_from_state_after_moves():
    rng = np.random.default_rng(163)
    for t in range(40):
        p = int(rng.integers(4, 12))
        d = 10.0 ** rng.uniform(-3.0, 3.0, p)
        sigma = d[:, None] * rand_psd(rng, p, rank=2 * p) * d[None, :]
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=p)
        assert init_state(crit, sigma).omega is not None
        state = init_state(crit, sigma)
        for _ in range(12):
            k = len(state.subset)
            if k == p or (k and rng.random() < 0.4):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in state.subset]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            got = criteria.objective_from_state(crit, state)
            want = evaluate(crit, sigma, state.subset)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (t, state.subset)


def test_canon_corr_state_has_no_inverse_of_singular_sigma():
    rng = np.random.default_rng(167)
    crit = Criterion(CriterionKind.CANON_CORR, p=6, k=2)
    full = rand_psd(rng, 6)
    twin = full.copy()
    twin[:, 1] = twin[:, 0]
    twin[1, :] = twin[0, :]
    dead = full.copy()
    dead[3, :] = dead[:, 3] = 0.0
    assert init_state(crit, full).omega is not None
    for sigma in (rand_psd(rng, 6, rank=4), twin, dead):
        state = state_from_subset(crit, sigma, (2,))
        assert state.omega is None
        assert criteria.objective_from_state(crit, state) == evaluate(crit, sigma, (2,))
    # the other criteria never invert sigma
    assert init_state(Criterion(CriterionKind.CSS_TRACE, p=6, k=2), full).omega is None
    with pytest.raises(NotPSD):
        init_state(crit, full - 2.0 * np.eye(6) * np.linalg.eigvalsh(full)[0])


def _unit_diagonal_with_condition(rng, p, cond, single):
    # one tiny eigenvalue (one near-linear dependency), or a spread spectrum
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    values = np.logspace(0.0, -np.log10(cond), p)
    if single:
        values[:-1] = 1.0
    m = (q * values) @ q.T
    d = 1.0 / np.sqrt(m.diagonal())
    m = d[:, None] * m * d[None, :]
    return (m + m.T) / 2.0


def test_canon_corr_picks_on_ill_conditioned_sigma():
    # One near-linear dependency puts the candidates' -cc values about
    # 1 / cond apart, and scores through sigma^-1 lose about eps * cond^2:
    # such picks missed the argmin in 80 of 300 instances at cond 1e6-1e7.
    # Up to CC_COND_MAX the state scores through sigma^-1 and attains the
    # argmin; at 1e8 it has no sigma^-1 and scores from the complement.
    rng = np.random.default_rng(173)
    for cond, inverted in ((2e3, True), (1e8, False)):
        for t in range(100):
            p = int(rng.integers(5, 12))
            base = _unit_diagonal_with_condition(rng, p, cond, single=t % 2 == 0)
            w = np.linalg.eigvalsh(base)
            assert (w[-1] / w[0] <= criteria.CC_COND_MAX) == inverted
            d = 10.0 ** rng.uniform(-3.0, 3.0, p)
            sigma = d[:, None] * base * d[None, :]
            size = int(rng.integers(0, min(5, p - 1)))
            subset = tuple(rng.permutation(p)[:size].tolist())
            crit = Criterion(CriterionKind.CANON_CORR, p=p, k=size + 1)
            state = state_from_subset(crit, sigma, subset)
            assert (state.omega is not None) == inverted, (cond, t)
            _assert_argmin_attained(crit, sigma, state, (cond, t, subset))


def test_canon_corr_factors_sigma_once_per_search(monkeypatch):
    # Greedy and swap eigendecompose sigma once per search, whatever k and
    # the number of restarts; the only other eigendecompositions are those
    # of the final from-scratch evaluate (one per block).
    from csskit.search import SearchConfig, greedy, swap

    counts = {"eigh": 0, "in_evaluate": 0, "evaluate": 0, "init_state": 0}
    inside = []
    eigh_desc, evaluate_, init_state_ = symmat.eigh_desc, criteria.evaluate, criteria.init_state

    def counting_eigh(m):
        counts["in_evaluate" if inside else "eigh"] += 1
        return eigh_desc(m)

    def counting_evaluate(*args):
        counts["evaluate"] += 1
        inside.append(1)
        try:
            return evaluate_(*args)
        finally:
            inside.pop()

    def counting_init_state(*args):
        counts["init_state"] += 1
        return init_state_(*args)

    monkeypatch.setattr(symmat, "eigh_desc", counting_eigh)
    monkeypatch.setattr(criteria, "evaluate", counting_evaluate)
    monkeypatch.setattr(criteria, "init_state", counting_init_state)
    sigma = rand_psd(np.random.default_rng(179), 60) + 0.1 * np.eye(60)
    runs = [
        (greedy, SearchConfig(k=2, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=2)), 1),
        (greedy, SearchConfig(k=8, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=8)), 1),
        (swap, SearchConfig(k=4, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=4),
                            restarts=3, seed=5), 3),
    ]
    for search, cfg, evaluates in runs:
        counts.update(dict.fromkeys(counts, 0))
        search(sigma, cfg)
        assert counts == {
            "eigh": 1, "in_evaluate": 2 * evaluates, "evaluate": evaluates, "init_state": 1,
        }, (search.__name__, cfg.k)


def _same_states(crit, stack, states):
    objective = criteria.objective_stack(crit, stack).tolist()
    for b, want in enumerate(states):
        got = stack.state(b)
        assert got.subset == want.subset and got.ranked == want.ranked
        for name in ("lt", "diag", "diag_sq"):
            a, w = getattr(got.factor, name), getattr(want.factor, name)
            assert (a is None and w is None) or np.array_equal(a, w), name
        assert objective[b] == criteria.objective_from_state(crit, want)


def _same_as_fresh(crit, sigma, stack):
    # each row against the state built afresh from its subset, to 1e-10
    # relative to sigma's scale: residual, ranked, objective and scores
    scale = max(1.0, float(np.abs(sigma).max()))
    tol = 1e-10 * scale**crit.score_degree
    objective = criteria.objective_stack(crit, stack)
    cands, scores = criteria.score_stack(crit, stack)
    for b in range(len(stack.subset)):
        got = stack.state(b)
        fresh = state_from_subset(crit, sigma, got.subset)
        assert got.ranked == fresh.ranked
        res = fresh.residual
        assert np.abs(got.residual - res).max() < 1e-10 * scale
        want = criteria.objective_from_state(crit, fresh)
        assert objective[b] == pytest.approx(want, rel=1e-10, abs=tol)
        want_cands, want_scores = score_all(crit, fresh)
        assert np.array_equal(cands[b], want_cands)
        got_scores, atol = scores[b], tol
        if crit.kind == CriterionKind.ISO_LRT:
            # the score is (p - k) log of the trace left once the candidate
            # joins, tr R - (R^2)_ii / R_ii, whose carried (R^2)_ii has an
            # absolute error (about eps |sigma|^2 per move): that trace is
            # compared to 1e-10 trace(sigma)^2 / R_ii, and only where it
            # is above 1e-6 trace(sigma) (nearer a perfect fit the score has
            # no digits left)
            col = res[:, want_cands]
            pivot = res[want_cands, np.arange(len(want_cands))]
            ok = symmat.adds_rank(pivot, sigma.diagonal()[want_cands])
            left = np.trace(res) - np.einsum("ij,ij->j", col, col) / np.where(ok, pivot, np.inf)
            far = ok & (left > 1e-6 * np.trace(sigma))
            got_scores, want_scores = got_scores[far], want_scores[far]
            atol = tol + 1e-10 * (crit.p - crit.k) * np.trace(sigma) ** 2 / (pivot * left)[far]
        assert np.allclose(got_scores, want_scores, rtol=1e-10, atol=atol), (crit.kind, got.subset)


def test_stacked_moves_match_the_per_state_ones():
    # Every search moves stacks: swap a group of restarts, greedy and a
    # single run a stack of one.  So each row of a 3-row stack must be what
    # its own stack of one gives (advance, retract, score_all), bit for
    # bit, under every criterion, and what a state built afresh gives, to
    # 1e-10.  One sigma in three is ill-conditioned past CC_COND_MAX, where
    # CanonCorr's rows score from generalised inverses, and one in three has
    # rank below k, where the rows carry side lists through every move.
    rng = np.random.default_rng(131)
    sides = 0
    for t in range(30):
        p = int(rng.integers(6, 16))
        k = int(rng.integers(2, p - 1))
        sigma = rand_psd(rng, p, int(rng.integers(1, k)) if t % 3 == 1 else p)
        if t % 3 == 2:
            sigma = _unit_diagonal_with_condition(rng, p, 1e7, single=t % 2 == 0)
            assert init_state(Criterion(CriterionKind.CANON_CORR, p=p, k=k), sigma).omega is None
        if t % 2:
            d = 10.0 ** rng.uniform(-3.0, 3.0, p)
            sigma = d[:, None] * sigma * d[None, :]
        for kind in ALL_KINDS:
            crit = Criterion(kind, p=p, k=k)
            starts = np.array([rng.permutation(p)[:k] for _ in range(3)])
            stack = criteria.StateStack.of_subsets(init_state(crit, sigma), starts)
            states = [state_from_subset(crit, sigma, start) for start in starts]
            _same_states(crit, stack, states)
            sides += sum(len(st.ranked) < k for st in states)
            leaving = starts[np.arange(3), rng.integers(0, k, 3)]
            shrunk = criteria.retract_stack(stack, leaving)
            states = [retract(crit, st, sigma, st.subset.index(v)) for st, v in zip(states, leaving)]
            _same_states(crit, shrunk, states)
            _same_as_fresh(crit, sigma, shrunk)
            cands, scores = criteria.score_stack(crit, shrunk)
            for b, st in enumerate(states):
                want_cands, want_scores = score_all(crit, st)
                assert np.array_equal(cands[b], want_cands) and np.array_equal(scores[b], want_scores)
            picks = cands[np.arange(3), rng.integers(0, p - k + 1, 3)]
            grown = criteria.advance_stack(shrunk, picks)
            states = [advance(crit, st, sigma, v) for st, v in zip(states, picks)]
            _same_states(crit, grown, states)
            _same_as_fresh(crit, sigma, grown)
    assert sides > 100
