"""Selection criteria: reference evaluation, incremental scoring, state moves."""

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


def test_state_checks_sigma_and_each_move():
    crit = Criterion(CriterionKind.CSS_TRACE, p=5, k=2)
    with pytest.raises(NotPSD):
        init_state(crit, np.diag([1.0, -1e-3, 2.0, 1.0, 1.0]))
    with pytest.raises(DimMismatch):
        init_state(crit, np.eye(4))
    sigma = rand_psd(np.random.default_rng(103), 5)
    state = state_from_subset(crit, sigma, [3])
    for i in (-1, 5, 3):  # out of range below and above, already selected
        with pytest.raises(DimMismatch):
            advance(crit, state, sigma, i)
    with pytest.raises(DimMismatch):
        retract(crit, state, sigma, 1)  # position k
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
    rng = np.random.default_rng(67)
    sigma = rand_psd(rng, 8)
    crit = Criterion(CriterionKind.CSS_TRACE, p=8, k=4)
    state = state_from_subset(crit, sigma, (1, 6, 3))
    state = retract(crit, state, sigma, 1)  # drop variable 6
    assert state.subset == (1, 3)
    want_res = symmat.residual_covariance(sigma, (1, 3))
    assert rel_err(state.residual, want_res) < 1e-8
    want_pinv = symmat.pseudo_inverse(sigma[np.ix_([1, 3], [1, 3])])
    assert rel_err(state.block_pinv, want_pinv) < 1e-8
    state = advance(crit, state, sigma, 0)
    assert state.subset == (1, 3, 0)
    assert state.log_det_block == pytest.approx(
        symmat.log_det(sigma[np.ix_([1, 3, 0], [1, 3, 0])]), abs=1e-8
    )


def test_retract_dependent_column():
    # After removing one of two identical variables the Schur downdate is
    # wrong (the block was singular); retract must recover pinv([[1]]).
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    crit = Criterion(CriterionKind.CSS_TRACE, p=2, k=2)
    state = retract(crit, state_from_subset(crit, sigma, (0, 1)), sigma, 1)
    assert state.subset == (0,)
    assert_allclose(state.block_pinv, np.array([[1.0]]), atol=1e-10)
    assert_allclose(state.residual, symmat.residual_covariance(sigma, (0,)), atol=1e-10)


def test_canon_corr_scores_without_pinv_add(monkeypatch):
    # CanonCorr scores every candidate in closed form from the state's
    # block, and they differ from -cc of the grown subset by one constant.
    rng = np.random.default_rng(79)
    calls = []
    pinv_add = symmat.pinv_add
    monkeypatch.setattr(symmat, "pinv_add", lambda *a: calls.append(a) or pinv_add(*a))
    for t in range(20):
        p = int(rng.integers(5, 10))
        sigma = rand_psd(rng, p, p if t % 2 else p - 2)
        subset = tuple(rng.permutation(p)[: int(rng.integers(0, 4))].tolist())
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=len(subset) + 1)
        state = state_from_subset(crit, sigma, subset)
        before = len(calls)
        cands, scores = score_all(crit, state)
        assert len(calls) == before, t
        vals = np.array([evaluate(crit, sigma, subset + (int(i),)) for i in cands])
        assert np.ptp(scores - vals) < 1e-8, (t, subset)


def test_advance_retract_keep_residual_exactly_symmetric():
    # The rank-one updates are formed as outer(g, g), so an exactly
    # symmetric sigma gives an exactly symmetric residual after any moves.
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


def test_objective_from_state_matches_evaluate():
    rng = np.random.default_rng(73)
    sigma = rand_psd(rng, 6) + 0.1 * np.eye(6)
    for kind in ALL_KINDS:
        crit = Criterion(kind, p=6, k=2)
        state = state_from_subset(crit, sigma, (4, 1))
        assert criteria.objective_from_state(crit, state) == pytest.approx(
            evaluate(crit, sigma, (4, 1)), abs=1e-8
        )
