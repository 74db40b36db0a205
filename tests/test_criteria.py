"""Selection criteria: reference evaluation, incremental scoring, state moves."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import criteria, symmat
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


def _subset(state):
    """The subset of a state, a stack of one, as a tuple."""
    (row,) = state.subset.tolist()
    return tuple(row)


def _ranked(state):
    """The members of a state off its side list (a nonzero column of L), in
    subset order."""
    adds = state.factor.lt[0].any(axis=1).tolist()
    return tuple(i for i, a in zip(_subset(state), adds) if a)


def _residual(state):
    """The dense residual covariance of a state, sigma - L L^T."""
    return state.factor.map(lambda a: a[0]).residual(state.sigma)


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
    assert _subset(advance(crit, state, sigma, np.int64(2))) == (3, 2)
    for position in (1, 0.5):  # position k, not an integer
        with pytest.raises(DimMismatch):
            retract(crit, state, sigma, position)
    with pytest.raises(DimMismatch):
        evaluate(crit, sigma, [0.9, 2.5])  # once the objective of (0, 2)
    with pytest.raises(DimMismatch):
        cc_sum(np.float64(2.0), [0], [1])
    with pytest.raises(DimMismatch):
        state_from_subset(crit, sigma, [1, 1])


def test_init_state_is_an_empty_stack_of_one():
    sigma = rand_psd(np.random.default_rng(107), 5)
    for kind in ALL_KINDS:
        state = init_state(Criterion(kind, p=5, k=2), sigma)
        assert isinstance(state, criteria.StateStack)
        assert state.subset.shape == (1, 0) and state.factor.diag.shape == (1, 5)
        assert _subset(state_from_subset(Criterion(kind, p=5, k=2), sigma, ())) == ()


def test_single_state_functions_take_one_row():
    # advance, retract, score_all and objective_from_state read one state:
    # a stack of two rows or of none is refused, not read at its row 0
    sigma = rand_psd(np.random.default_rng(109), 5)
    for kind in ALL_KINDS:
        crit = Criterion(kind, p=5, k=2)
        two = criteria.StateStack.of_subsets(init_state(crit, sigma), np.array([[0, 3], [2, 1]]))
        for stack in (two, two.take(np.array([False, False]))):
            for call in (
                lambda: advance(crit, stack, sigma, 4),
                lambda: retract(crit, stack, sigma, 0),
                lambda: score_all(crit, stack),
                lambda: criteria.objective_from_state(crit, stack),
            ):
                with pytest.raises(DimMismatch, match="one row"):
                    call()
        one = two.take([1])
        assert _subset(advance(crit, one, sigma, 4)) == (2, 1, 4)
        assert _subset(retract(crit, one, sigma, 0)) == (1,)
        assert score_all(crit, one)[0].tolist() == [0, 3, 4]
        assert criteria.objective_from_state(crit, one) == criteria.objective_stack(crit, two)[1]


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


def _canonical_correlations(sigma, a, b):
    """The canonical correlations of column sets ``a`` and ``b``, computed
    apart from cc_sum: the singular values of ``C_aa^(-1/2) C_ab
    C_bb^(-1/2)`` on the correlation scale ``C`` (a zero variance stays a
    zero row), each inverse square root taken on its block's range through
    an eigendecomposition."""
    sd = np.sqrt(sigma.diagonal())
    scale = np.where(sd > 0.0, sd, 1.0)
    corr = sigma / np.outer(scale, scale)

    def inverse_root(block):
        w, v = np.linalg.eigh(block)
        keep = w > 1e-10 * max(float(w[-1]), 1.0)
        return (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].T

    a, b = list(a), list(b)
    m = inverse_root(corr[np.ix_(a, a)]) @ corr[np.ix_(a, b)] @ inverse_root(corr[np.ix_(b, b)])
    return np.linalg.svd(m, compute_uv=False)


def test_cc_sum_matches_canonical_correlations_in_any_units():
    # Four kinds of sigma: full rank; of rank below |b| with a duplicated
    # column; with a zero-variance column; and each variable rescaled by
    # 10^U(-3, 3), which moves no canonical correlation.
    rng = np.random.default_rng(181)
    worst = 0.0
    for t in range(160):
        p = int(rng.integers(4, 12))
        kind = t % 4
        if kind == 1:
            sigma = rand_psd(rng, p, rank=int(rng.integers(1, p - 2)))
            j, i = rng.choice(p, size=2, replace=False)
            sigma[j], sigma[:, j] = sigma[i], sigma[:, i]
        else:
            sigma = rand_psd(rng, p)
        if kind == 2:
            j = int(rng.integers(p))
            sigma[j], sigma[:, j] = 0.0, 0.0
        perm = rng.permutation(p).tolist()
        cut = int(rng.integers(1, p))
        a, b = perm[:cut], perm[cut : int(rng.integers(cut + 1, p + 1))]
        if kind == 1:
            a, b = perm[: min(cut, 2)], perm[min(cut, 2) :]  # |b| exceeds the rank
            assert np.linalg.matrix_rank(sigma) < len(b)
        want = float(np.sum(_canonical_correlations(sigma, a, b) ** 2))
        got = cc_sum(sigma, a, b)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9, (t, kind, a, b, got, want)
        d = 10.0 ** rng.uniform(-3.0, 3.0, p)
        rescaled = d[:, None] * sigma * d[None, :]
        assert abs(cc_sum(rescaled, a, b) - got) <= 1e-9, (t, kind)
        assert abs(cc_sum(sigma, b[::-1], a[::-1]) - got) <= 1e-9, (t, kind)
    assert worst <= 1e-9


def test_cc_sum_refuses_an_indefinite_side():
    # Variables 0-2 have an eigenvalue of -0.8 on their variances: their
    # pivots stop short of three, and either side order refuses them
    # rather than whitening the two that add rank.
    sigma = np.array([[1.0, 0.9, 0.9, 0.2], [0.9, 1.0, -0.9, 0.1], [0.9, -0.9, 1.0, 0.3], [0.2, 0.1, 0.3, 1.0]])
    for a, b in (((3,), (0, 1, 2)), ((0, 1, 2), (3,))):
        with pytest.raises(NotPSD):
            cc_sum(sigma, a, b)


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


def test_evaluate_forms_an_exactly_symmetric_complement_block(monkeypatch):
    # On a rank-8-of-10 sigma, S = (0, 2, 3, 4, 5, 6, 8, 9) fits the other
    # two variables perfectly.  Through generalised-inverse coefficients
    # their 2 x 2 residual block came out asymmetric, with an eigenvalue of
    # -3.0e-10 on their variances; as sigma_CC - b_C^T b_C it is exactly
    # symmetric and reads as singular.
    rng = np.random.default_rng(2024)
    for _ in range(294):
        g = rng.standard_normal((10, 8))
    sigma = g @ g.T / 10
    blocks = []
    log_det = symmat.log_det
    monkeypatch.setattr(symmat, "log_det", lambda m, *args: blocks.append(m) or log_det(m, *args))
    crit = Criterion(CriterionKind.DET_RESIDUAL, p=10, k=8)
    assert evaluate(crit, sigma, (0, 2, 3, 4, 5, 6, 8, 9)) == -np.inf
    (block,) = blocks
    assert block.shape == (2, 2) and np.array_equal(block, block.T)


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
    # n * (objective - log det sigma) is the goodness-of-fit statistic by
    # its definition on the complement's residual block R (det sigma = det
    # sigma_S det R): the criteria and the tests minimize the same quantity,
    # and csskit.sizesel reads its statistics this way.
    rng = np.random.default_rng(59)
    n = 37
    sigma = rand_psd(rng, 7) + 0.4 * np.eye(7)
    ld = np.linalg.slogdet(sigma)[1]
    for k in (1, 3):
        u = tuple(sorted(rng.choice(7, size=k, replace=False).tolist()))
        comp = [j for j in range(7) if j not in u]
        r = symmat.residual_covariance(sigma, u)[np.ix_(comp, comp)]
        ld_r, m = np.linalg.slogdet(r)[1], 7 - k
        dd = Criterion(CriterionKind.DIAG_DET, p=7, k=k)
        il = Criterion(CriterionKind.ISO_LRT, p=7, k=k)
        assert n * (evaluate(dd, sigma, u) - ld) == pytest.approx(
            n * (np.sum(np.log(np.diag(r))) - ld_r), abs=1e-8
        )
        assert n * (evaluate(il, sigma, u) - ld) == pytest.approx(
            n * (m * np.log(np.trace(r) / m) - ld_r), abs=1e-8
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
                k = len(_subset(state))
                if k == 3 or (k and rng.random() < 0.4):
                    state = retract(crit, state, sigma, int(rng.integers(k)))
                else:
                    outside = [j for j in range(p) if j not in _subset(state)]
                    state = advance(crit, state, sigma, int(rng.choice(outside)))
                cands, scores = score_all(crit, state)
                vals = [evaluate(crit, sigma, _subset(state) + (int(i),)) for i in cands]
                assert np.array_equal(np.isneginf(scores), np.isneginf(vals)), (
                    t, kind, _subset(state), scores, vals,
                )


def _assert_argmin_attained(crit, sigma, state, tag):
    """The incremental pick attains the reference minimum; exact ties
    (equal scores) resolve to the lowest index."""
    subset = _subset(state)
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
            assert _subset(state) == subset
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
        assert _subset(state) == (1, 3)
        want_res = symmat.residual_covariance(sigma, (1, 3))
        assert rel_err(_residual(state), want_res) < 1e-8
        state = advance(crit, state, sigma, 0)
        assert _subset(state) == (1, 3, 0)
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
            assert _subset(got) == _subset(want) and _ranked(got) == _ranked(want)
            want_obj = criteria.objective_from_state(crit, want)
            assert criteria.objective_from_state(crit, got) == pytest.approx(want_obj, abs=1e-10)
            assert_allclose(_residual(got), _residual(want), atol=1e-10)
            (got_cands, got_scores), (want_cands, want_scores) = score_all(crit, got), score_all(crit, want)
            assert np.array_equal(got_cands, want_cands)
            assert_allclose(got_scores, want_scores, atol=1e-10)
            got, want = advance(crit, got, sigma, 2), advance(crit, want, sigma, 2)
            assert _ranked(got) == _ranked(want)
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
        assert _ranked(state) == (1, 2)  # 4 is on the side list
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
            k = len(_subset(state))
            if k and (k == p or rng.random() < 0.4):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in _subset(state)]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            res = _residual(state)
            assert np.array_equal(res, res.T)


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
        assert _ranked(state) == (0, 1)
        if kind in (CriterionKind.DIAG_DET, CriterionKind.ISO_LRT):  # the side list makes sigma_S singular
            assert criteria.objective_from_state(crit, state) == -np.inf
        state = retract(crit, state, sigma, 0)
        fresh = state_from_subset(crit, sigma, (1, 2))
        assert _subset(state) == (1, 2) and sorted(_ranked(state)) == [1, 2]
        assert rel_err(_residual(state), _residual(fresh)) < 1e-10
        assert rel_err(_residual(state), symmat.residual_covariance(sigma, (1, 2))) < 1e-10
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
            k = len(_subset(state))
            if k and (k == p or rng.random() < 0.45):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in _subset(state)]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            want = symmat.residual_covariance(sigma, _subset(state))
            gap = np.linalg.norm(_residual(state) - want)
            assert gap < 1e-8 * scale, (t, _subset(state))
            assert np.max(np.abs(state.factor.diag[0] - want.diagonal())) < 1e-8 * scale
            sq = np.einsum("ij,ij->i", want, want)
            assert np.max(np.abs(state.factor.diag_sq[0] - sq)) < 1e-8 * scale**2


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
        outside = [j for j in others if j not in _subset(state)]
        state = advance(crit, state, sigma, int(rng.choice(outside)))
        if len(_subset(state)) > 3:
            state = retract(crit, state, sigma, int(rng.integers(len(_subset(state)))))
    state = advance(crit, advance(crit, state, sigma, 0), sigma, 1)
    res = symmat.residual_covariance(sigma, _subset(state))
    assert 1e-10 < res[5, 5] / sigma[5, 5] < 1e-5
    cands, scores = score_all(crit, state)
    want = -np.sum(res * res, axis=0)[cands] / res.diagonal()[cands]
    assert_allclose(scores, want, rtol=1e-5)


def test_moves_allocate_no_dense_residual():
    # A CssTrace advance to k=20 and a retract from it, at p=600, each
    # allocate under a quarter of one p x p array (2.9 MB): the residual
    # lives in its factor.  FrobResidual scores and reads a state of k=300
    # under one p x p array: both read only the complement's block of R.
    p, k = 600, 20
    rng = np.random.default_rng(167)
    sigma = rand_psd(rng, p, rank=40) + 0.1 * np.eye(p)
    crit = Criterion(CriterionKind.CSS_TRACE, p=p, k=k)
    state = state_from_subset(crit, sigma, range(0, 2 * k - 2, 2))
    grown = advance(crit, state, sigma, 1)
    frob = Criterion(CriterionKind.FROB_RESIDUAL, p=p, k=p // 2)
    half = state_from_subset(frob, sigma, range(0, p, 2))
    dense = p * p * 8
    for move, bound in (
        (lambda: advance(crit, state, sigma, 1), dense / 4),
        (lambda: retract(crit, grown, sigma, 7), dense / 4),
        (lambda: score_all(frob, half), dense),
        (lambda: criteria.objective_from_state(frob, half), dense),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            move()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


def test_frob_residual_scores_are_objective_differences():
    # A FrobResidual score is the change of the objective when its candidate
    # joins: score_i + objective(S) = evaluate(S + (i,)) to 1e-9 of (tr sigma
    # / p)^2, on full-rank sigma, on rank-deficient sigma (x2 = x0 - x1) and
    # on sigma with a duplicated column (x1 = x0), whose states hold those
    # members and carry side lists, and on rescaled sigma.
    rng = np.random.default_rng(173)
    sides = 0
    for t in range(40):
        p = int(rng.integers(5, 12))
        g = rng.standard_normal((p, p + 2))
        dependent = [(), (0, 1, 2), (0, 1), ()][t % 4]
        if t % 4 == 1:
            g[2] = g[0] - g[1]
        if t % 4 == 2:
            g[1] = g[0]
        sigma = g @ g.T / p
        if t % 4 == 3:
            d = 10.0 ** rng.uniform(-3.0, 3.0, p)
            sigma = d[:, None] * sigma * d[None, :]
        others = [int(i) for i in rng.permutation(p) if i not in dependent]
        subset = list(dependent) + others[: int(rng.integers(0, p - 1 - len(dependent)))]
        subset = tuple(rng.permutation(subset).tolist())
        crit = Criterion(CriterionKind.FROB_RESIDUAL, p=p, k=max(1, len(subset)))
        state = state_from_subset(crit, sigma, subset)
        sides += len(_ranked(state)) < len(subset)
        cands, scores = score_all(crit, state)
        want = [evaluate(crit, sigma, subset + (int(i),)) for i in cands]
        got = scores + criteria.objective_from_state(crit, state)
        assert_allclose(got, want, rtol=0, atol=1e-9 * (np.trace(sigma) / p) ** 2, err_msg=str((t, subset)))
    assert sides == 20


def test_objective_from_state_matches_evaluate():
    rng = np.random.default_rng(73)
    sigma = rand_psd(rng, 6) + 0.1 * np.eye(6)
    for kind in ALL_KINDS:
        crit = Criterion(kind, p=6, k=2)
        state = state_from_subset(crit, sigma, (4, 1))
        assert criteria.objective_from_state(crit, state) == pytest.approx(
            evaluate(crit, sigma, (4, 1)), abs=1e-8
        )


def _assert_evaluate_matches_the_state(crit, sigma, subset, scale, rel, log_tol):
    """evaluate and the state's objective agree: equal (both -inf, say),
    within ``log_tol`` for a log criterion, and otherwise within ``rel``
    times ``scale`` (squared for FrobResidual)."""
    got = evaluate(crit, sigma, subset)
    want = criteria.objective_from_state(crit, state_from_subset(crit, sigma, subset))
    tol = {CriterionKind.CSS_TRACE: rel * scale, CriterionKind.FROB_RESIDUAL: rel * scale**2}.get(crit.kind, log_tol)
    assert got == want or abs(got - want) <= tol, (crit.kind, subset, got, want)


def test_evaluate_regresses_on_the_members_that_add_rank():
    # Variable 2 is (x1 - x0) / eps, fit exactly by S = (0, 1), whose
    # unit-diagonal block has 1 - rho^2 = 3e-10: its second pivot adds rank
    # (the state's rule), but an eigenvalue cut at RANK_TOL * lambda_max
    # dropped that direction, and evaluate read variable 2 as not fit at all
    # (CssTrace 1.0 and DiagDet -21.93, where the state reads 8.3e-8 and
    # -38.23).  Both now read the roundoff of the exact fit, of order eps /
    # 3e-10 of variable 2's variance, and agree wherever rescaling the
    # variables is exact (powers of two).  At other units the roundoff
    # moves, and the state may read it below the cutoff (-inf), but
    # evaluate still fits variable 2.
    eps2 = 3e-10
    eps = np.sqrt(eps2)
    base = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + eps2, eps], [0.0, eps, 1.0]])
    for units in (np.ones(3), 2.0 ** np.array([-10, 10, 3]), 2.0 ** np.array([8, -5, -13])):
        sigma = base * np.outer(units, units)
        for kind, subset in itertools.product(ALL_KINDS, ((0, 1), (1, 0))):
            _assert_evaluate_matches_the_state(Criterion(kind, p=3, k=2), sigma, subset, sigma[2, 2], 1e-8, 0.05)
    crit = Criterion(CriterionKind.CSS_TRACE, p=3, k=2)
    for units in (np.array([1e-3, 1e3, 7.0]), np.array([2e2, 3e-2, 1e-4]), np.array([1e3, 1e3, 1.0])):
        sigma = base * np.outer(units, units)
        assert evaluate(crit, sigma, (0, 1)) <= 1e-5 * sigma[2, 2]


def _near_cutoff_sigma(rng, p, k):
    """A ``p x p`` sigma, each variable in its own units, whose unit-diagonal
    block of the first ``k`` variables has its least eigenvalue in
    ``(10^-10.2, 10^-8.5)``: variable ``k - 1`` lies within about 1e-5 of
    the span of the ones before it."""
    while True:
        f = rng.standard_normal((p, p + 2))
        f[k - 1] = rng.standard_normal(k - 1) @ f[: k - 1] + 10 ** rng.uniform(-5.5, -4.0) * f[k - 1]
        units = np.exp(rng.uniform(-3.0, 3.0, p))
        sigma = (f @ f.T) * np.outer(units, units)  # exactly symmetric
        d = 1.0 / np.sqrt(sigma.diagonal()[:k])
        least = np.linalg.eigvalsh(d[:, None] * sigma[:k, :k] * d[None, :])[0]
        if 10**-10.2 < least < 10**-8.5:
            return sigma


def test_evaluate_matches_the_state_near_the_rank_cutoff():
    # Near the cutoff the eigenvalue cut dropped directions that add rank
    # by the state's pivots: on these sigma evaluate read CssTrace up to
    # half of tr(sigma) and the log criteria up to 2.9 away from the state.
    # Both sides now regress on the same members and differ by roundoff
    # (at most 1.2e-6 of tr(sigma) and 1.4e-5 over 300 such sigma).
    rng = np.random.default_rng(1031)
    for _ in range(100):
        p = int(rng.integers(4, 9))
        k = int(rng.integers(2, p - 1))
        sigma = _near_cutoff_sigma(rng, p, k)
        for kind in ALL_KINDS:
            crit = Criterion(kind, p=p, k=k)
            _assert_evaluate_matches_the_state(crit, sigma, tuple(range(k)), np.trace(sigma), 1e-5, 1e-3)


def test_evaluate_takes_no_generalised_inverse(monkeypatch):
    # Every criterion reads the pivots of one Cholesky factor of sigma_S (and
    # CanonCorr of its complement's block): no eigenvalue cut, on full-rank
    # and rank-deficient sigma alike, for any subset size.
    def refuse(m):
        raise AssertionError("evaluate took a generalised inverse")

    monkeypatch.setattr(symmat, "ginv", refuse)
    monkeypatch.setattr(symmat, "pseudo_inverse", refuse)
    rng = np.random.default_rng(1033)
    twin = rand_psd(rng, 7)
    twin[:, 5] = twin[:, 2]
    twin[5, :] = twin[2, :]
    for sigma in (rand_psd(rng, 7), rand_psd(rng, 7, rank=4), twin):
        for kind in ALL_KINDS:
            crit = Criterion(kind, p=7, k=3)
            for subset in ((), (2,), (5, 2), (0, 3, 5), (2, 5, 1, 6, 0), tuple(range(7))):
                assert not np.isnan(evaluate(crit, sigma, subset))
    # an indefinite sigma_S, eigenvalue -1 on its variances, is still refused
    bad = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    for kind in ALL_KINDS:
        with pytest.raises(NotPSD):
            evaluate(Criterion(kind, p=3, k=2), bad, (0, 1))


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
            k = len(_subset(state))
            if k == p or (k and rng.random() < 0.4):
                state = retract(crit, state, sigma, int(rng.integers(k)))
            else:
                outside = [j for j in range(p) if j not in _subset(state)]
                state = advance(crit, state, sigma, int(rng.choice(outside)))
            got = criteria.objective_from_state(crit, state)
            want = evaluate(crit, sigma, _subset(state))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (t, _subset(state))


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


def test_canon_corr_scores_from_either_source_differ_by_k():
    # One formula scores from the complement, its inputs taken from sigma^-1
    # when the state has it and from generalised inverses when it has not:
    # on one state the two differ by exactly -k, to roundoff, at every size
    # up to a single candidate, at condition numbers up to CC_COND_MAX and in
    # any units.
    rng = np.random.default_rng(181)
    for t in range(300):
        p = int(rng.integers(3, 13))
        base = _unit_diagonal_with_condition(rng, p, 10.0 ** rng.uniform(0.0, 4.0), single=t % 2 == 0)
        d = 10.0 ** rng.uniform(-3.0, 3.0, p)
        sigma = d[:, None] * base * d[None, :]
        k = t % p
        subset = tuple(rng.permutation(p)[:k].tolist())
        crit = Criterion(CriterionKind.CANON_CORR, p=p, k=min(k + 1, p))
        state = state_from_subset(crit, sigma, subset)
        assert state.omega is not None, t
        _, exact = score_all(crit, state)
        _, shifted = score_all(crit, dataclasses.replace(state, omega=None))
        assert np.all(np.abs(exact - (shifted - k)) <= 1e-9 * np.maximum(1.0, np.abs(exact))), (t, subset)


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
    # On a well-conditioned sigma, greedy and swap factor sigma once per
    # search (init_state's Omega, from one Cholesky), whatever k and the
    # number of restarts, and form no eigenvectors and no generalised
    # inverse: the scores come from the factor, and the final evaluate
    # whitens both sides by pivots.  Sigma's eigenvalues are read only when
    # the norm bounds of symmat.inverse leave its condition rule open: not
    # for the first sigma (unit-diagonal condition number 37, upper bound
    # 241), once per search for the second (3 360, bounds 255 and 15 300
    # about CC_COND_MAX).
    from csskit.search import SearchConfig, greedy, swap

    counts = dict.fromkeys(("eigvals_desc", "eigh_desc", "ginv", "pseudo_inverse", "init_state"), 0)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("eigvals_desc", "eigh_desc", "ginv", "pseudo_inverse"):
        counting(symmat, name)
    counting(criteria, "init_state")
    runs = [
        (greedy, SearchConfig(k=2, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=2))),
        (greedy, SearchConfig(k=8, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=8))),
        (swap, SearchConfig(k=4, criterion=Criterion(CriterionKind.CANON_CORR, p=60, k=4), restarts=3, seed=5)),
    ]
    for ridge, reads in ((0.1, 0), (1e-3, 1)):
        sigma = rand_psd(np.random.default_rng(179), 60) + ridge * np.eye(60)
        for search, cfg in runs:
            counts.update(dict.fromkeys(counts, 0))
            search(sigma, cfg)
            assert counts == {
                "eigvals_desc": reads, "eigh_desc": 0, "ginv": 0, "pseudo_inverse": 0, "init_state": 1,
            }, (ridge, search.__name__, cfg.k)


def _same_states(crit, stack, states):
    # each row against its own stack of one, bit for bit
    objective = criteria.objective_stack(crit, stack).tolist()
    for b, want in enumerate(states):
        got = stack.take([b])
        assert _subset(got) == _subset(want) and _ranked(got) == _ranked(want)
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
        got = stack.take([b])
        fresh = state_from_subset(crit, sigma, _subset(got))
        assert _ranked(got) == _ranked(fresh)
        res = _residual(fresh)
        assert np.abs(_residual(got) - res).max() < 1e-10 * scale
        want = criteria.objective_from_state(crit, fresh)
        assert objective[b] == pytest.approx(want, rel=1e-10, abs=tol)
        want_cands, want_scores = score_all(crit, fresh)
        assert np.array_equal(cands[b], want_cands)
        got_scores, atol = scores[b], tol
        if crit.kind == CriterionKind.ISO_LRT:
            # the score is (p - k) log of the trace left once the candidate
            # joins, tr R - (R^2)_ii / R_ii; above sqrt(RANK_TOL)
            # trace(sigma) it reads the carried (R^2)_ii, whose error is
            # absolute (about eps |sigma|^2 per move), so that trace is
            # compared to 1e-12 trace(sigma)^2 / R_ii wherever it is not a
            # perfect fit by the rank rule
            col = res[:, want_cands]
            pivot = res[want_cands, np.arange(len(want_cands))]
            ok = symmat.adds_rank(pivot, sigma.diagonal()[want_cands])
            left = np.trace(res) - np.einsum("ij,ij->j", col, col) / np.where(ok, pivot, np.inf)
            far = ok & symmat.adds_rank(left, np.trace(sigma))
            got_scores, want_scores = got_scores[far], want_scores[far]
            atol = tol + 1e-12 * (crit.p - crit.k) * np.trace(sigma) ** 2 / (pivot * left)[far]
        assert np.allclose(got_scores, want_scores, rtol=1e-10, atol=atol), (crit.kind, _subset(got))


def test_iso_lrt_scores_near_a_fit_match_a_fresh_state():
    # Near a perfect fit the IsoLrt score is (p - k) log of a trace left
    # that is a tiny difference.  Read from the carried diag R^2, whose
    # error is absolute, it followed update roundoff: a state moved by
    # retracts and advances scored such candidates up to 1.7e-3 away from
    # the state built afresh from its subset.  Read from the candidate's
    # residual column they agree to 1e-4, for every trace left between
    # 1e-9 and 1e-5 of trace(sigma).  sigma has rank r up to a small ridge,
    # so one more member completes the span, and its variables are
    # rescaled over four decades.
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(100):
        p = int(rng.integers(6, 13))
        r = int(rng.integers(2, p - 1))
        g = rng.standard_normal((p, r))
        sigma = g @ g.T + 10.0 ** rng.uniform(-9.0, -5.0) * np.diag(rng.uniform(0.5, 2.0, p))
        d = 10.0 ** rng.uniform(-2.0, 2.0, p)
        sigma = d[:, None] * sigma * d[None, :]
        crit = Criterion(CriterionKind.ISO_LRT, p=p, k=r)
        stack = criteria.StateStack.of_subsets(init_state(crit, sigma), rng.permutation(p)[: r - 1][None])
        for _ in range(8):
            stack = criteria.retract_stack(stack, stack.subset[0, rng.integers(0, r - 1)][None])
            outside = np.setdiff1d(np.arange(p), stack.subset[0])
            stack = criteria.advance_stack(stack, rng.choice(outside)[None])
        fresh = state_from_subset(crit, sigma, _subset(stack))
        cands, got = score_all(crit, stack)
        want = score_all(crit, fresh)[1]
        res = _residual(fresh)
        pivot = res[cands, cands]
        left = np.trace(res) - np.einsum("ij,ij->j", res[:, cands], res[:, cands]) / pivot
        near = (pivot > 1e-8 * sigma.diagonal()[cands]) & (left >= 1e-9 * np.trace(sigma))
        near &= left <= 1e-5 * np.trace(sigma)
        assert_allclose(got[near], want[near], rtol=0, atol=1e-4)
        checked += int(near.sum())
    assert checked > 300


def test_stack_rows_match_their_stacks_of_one():
    # Every search moves stacks: swap a group of restarts, greedy and a
    # single run a stack of one, which is also what a single state is.  So
    # each row of a 3-row stack must be what its own stack of one gives
    # (advance, retract, score_all), bit for bit, under every criterion,
    # and what a state built afresh gives, to 1e-10.  One sigma in three is ill-conditioned past CC_COND_MAX, where
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
            sides += sum(len(_ranked(st)) < k for st in states)
            leaving = starts[np.arange(3), rng.integers(0, k, 3)]
            shrunk = criteria.retract_stack(stack, leaving)
            states = [retract(crit, st, sigma, _subset(st).index(v)) for st, v in zip(states, leaving)]
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
