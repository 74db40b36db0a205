"""Symmetric-matrix kernels: pseudo-inverse, residuals, rank-one updates."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import symmat
from csskit.errors import DimMismatch, NonFinite, NotPSD


def rand_psd(rng, p, rank=None):
    rank = p if rank is None else rank
    g = rng.standard_normal((p, rank))
    return g @ g.T / p


def test_pseudo_inverse_identity():
    assert_allclose(symmat.pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_pseudo_inverse_singular_diagonal():
    got = symmat.pseudo_inverse(np.diag([2.0, 0.0]))
    assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-12)


def test_pseudo_inverse_rank_one():
    # [[4,2],[2,1]] = vv^T with v = (2,1); the pseudo-inverse is vv^T/|v|^4.
    m = np.array([[4.0, 2.0], [2.0, 1.0]])
    assert_allclose(symmat.pseudo_inverse(m), m / 25.0, atol=1e-12)


def test_pseudo_inverse_moore_penrose():
    rng = np.random.default_rng(7)
    for p, rank in [(3, 3), (6, 4), (12, 7), (20, 9), (20, 20)]:
        a = rand_psd(rng, p, rank)
        x = symmat.pseudo_inverse(a)
        assert_allclose(a @ x @ a, a, atol=1e-8)
        assert_allclose(x @ a @ x, x, atol=1e-8)
        assert_allclose((a @ x).T, a @ x, atol=1e-8)
        assert_allclose((x @ a).T, x @ a, atol=1e-8)


def test_pseudo_inverse_rejects_indefinite():
    with pytest.raises(NotPSD):
        symmat.pseudo_inverse(np.diag([1.0, -1.0]))


def test_as_symmetric():
    # The asymmetry check is relative to the largest entry, so a matrix in
    # small units is still checked, and roundoff is still symmetrized.
    near = np.array([[1.0, 0.5 + 5e-9], [0.5, 1.0]])
    for c in (1e-12, 1e-9, 1.0, 1e9):
        out = symmat.as_symmetric(c * near)
        assert out[0, 1] == out[1, 0]
        assert_allclose(out, c * np.array([[1.0, 0.5], [0.5, 1.0]]), rtol=1e-8)
        with pytest.raises(DimMismatch):
            symmat.as_symmetric(c * np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(NonFinite):
        symmat.as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_check_subset():
    assert symmat.check_subset(5, [3, 1]) == (3, 1)
    with pytest.raises(DimMismatch):
        symmat.check_subset(3, [0, 3])
    with pytest.raises(DimMismatch):
        symmat.check_subset(3, [1, 1])


def test_eigh_desc_order():
    m = np.diag([1.0, 3.0, 2.0])
    w, v = symmat.eigh_desc(m)
    assert np.all(np.diff(w) <= 0)
    assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-12)


def test_log_det():
    assert symmat.log_det(np.eye(4)) == 0.0
    assert_allclose(symmat.log_det(np.diag([2.0, 3.0])), np.log(6.0), rtol=1e-12)
    assert symmat.log_det(np.diag([1.0, 0.0])) == -np.inf
    assert symmat.log_det(np.zeros((0, 0))) == 0.0
    # singularity does not depend on how far apart the variances are
    assert_allclose(symmat.log_det(np.diag([1e-12, 1e12])), 0.0, atol=1e-12)
    assert symmat.log_det(np.array([[1e-12, 1e-6], [1e-6, 1.0]])) == -np.inf
    with pytest.raises(NotPSD):
        symmat.log_det(np.diag([1.0, -1.0]))


def test_adds_rank():
    assert symmat.adds_rank(1e-9, 1.0) and not symmat.adds_rank(1e-11, 1.0)
    assert symmat.adds_rank(1e-21, 1e-12) and not symmat.adds_rank(0.0, 0.0)
    got = symmat.adds_rank(np.array([1.0, 1e-3, 1e3]), np.array([1.0, 1e9, 1e12]))
    assert got.tolist() == [True, False, True]


def test_ginv_is_a_generalised_inverse():
    rng = np.random.default_rng(13)
    for p, rank in [(4, 4), (6, 3), (7, 5)]:
        a = rand_psd(rng, p, rank)
        a[:, 0] = a[0, :] = 0.0  # a variable of zero variance
        g = symmat.ginv(a)
        assert_allclose(a @ g @ a, a, atol=1e-8)
        assert_allclose(g, g.T, atol=1e-12)
        assert np.all(g[0] == 0.0)
    # full rank: the inverse itself, D^-1 inv(c) D^-1 for a = D c D, at
    # any spread of the variances
    c = np.eye(3) + 0.5
    d = np.array([1e-6, 1.0, 1e6])
    g = symmat.ginv(d[:, None] * c * d[None, :])
    assert_allclose(d[:, None] * g * d[None, :], np.linalg.inv(c), atol=1e-12)


def test_psd_project_hand_value():
    # Eigenvalues 20/3 and -4/3; clamping the negative one leaves
    # (20/3) * (1,1)(1,1)^T / 2.
    psi = np.array([[8.0 / 3.0, 4.0], [4.0, 8.0 / 3.0]])
    assert_allclose(symmat.psd_project(psi), np.full((2, 2), 10.0 / 3.0), atol=1e-12)


def test_psd_project_idempotent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2
    w = symmat.psd_project(a)
    assert np.min(np.linalg.eigvalsh(w)) >= -1e-10
    assert_allclose(symmat.psd_project(w), w, atol=1e-10)


def test_psd_project_closest_point():
    # No PSD candidate beats the projection in Frobenius distance.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2
    base = np.linalg.norm(symmat.psd_project(a) - a)
    for _ in range(200):
        cand = rand_psd(rng, 5, int(rng.integers(1, 6)))
        assert np.linalg.norm(cand - a) >= base - 1e-10


def test_residual_hand_example():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    res = symmat.residual_covariance(sigma, (0,))
    assert_allclose(res[1, 1], 0.75, atol=1e-12)
    assert abs(res[0, 0]) < 1e-12 and abs(res[0, 1]) < 1e-12


def test_residual_empty_subset_is_copy():
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = symmat.residual_covariance(sigma, ())
    assert_allclose(res, sigma)
    res[0, 0] = -1.0
    assert sigma[0, 0] == 2.0


def test_residual_and_log_det_do_not_depend_on_units():
    # Rescaling variable j by d_j rescales the residual covariance to
    # D R D and adds 2 sum(log d) to the log-determinant; no rank decision
    # may move.  Variances spread over twelve decades, rank p or p - 2.
    rng = np.random.default_rng(211)
    for t in range(200):
        p = int(rng.integers(4, 10))
        sigma = rand_psd(rng, p, p if t % 2 else p - 2)
        d = 10.0 ** rng.uniform(-6.0, 6.0, p)
        scaled = d[:, None] * sigma * d[None, :]
        subset = tuple(rng.permutation(p)[: int(rng.integers(0, 4))].tolist())
        want = symmat.residual_covariance(sigma, subset)
        got = symmat.residual_covariance(scaled, subset) / d[:, None] / d[None, :]
        assert np.abs(got - want).max() < 1e-8, (t, subset)
        want_ld = symmat.log_det(sigma)
        got_ld = symmat.log_det(scaled) - 2.0 * np.sum(np.log(d))
        if np.isinf(want_ld):
            assert got_ld == -np.inf, t
        else:
            assert abs(got_ld - want_ld) < 1e-6 * max(1.0, abs(want_ld)), t


def test_residual_trace_monotone_in_subset():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = int(rng.integers(3, 9))
        sigma = rand_psd(rng, p)
        u = sorted(rng.choice(p, size=2, replace=False).tolist())
        v = sorted(set(u) | {int(rng.integers(0, p))})
        tr_u = np.trace(symmat.residual_covariance(sigma, u))
        tr_v = np.trace(symmat.residual_covariance(sigma, v))
        assert tr_v <= tr_u + 1e-10


def test_residual_add_matches_from_scratch():
    rng = np.random.default_rng(23)
    for rank_frac in (1.0, 0.5):
        for _ in range(10):
            p = int(rng.integers(4, 10))
            sigma = rand_psd(rng, p, max(2, int(p * rank_frac)))
            u = rng.permutation(p)[:3].tolist()
            for order in itertools.permutations(u):
                fac = symmat.Factor.empty(sigma, squares=True)
                for i in order:
                    fac = symmat.residual_add(sigma, fac, i)
                res = fac.residual(sigma)
                want = symmat.residual_covariance(sigma, order)
                assert np.linalg.norm(res - want) < 1e-8


def test_residual_add_zero_pivot_is_noop():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    fac = symmat.Factor.empty(sigma, squares=True)
    fac = symmat.residual_add(sigma, fac, 0)  # variable 1 now redundant
    res = symmat.residual_covariance(sigma, (0,))
    assert_allclose(symmat.residual_add(sigma, fac, 1).residual(sigma), res)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


def test_pinv_add_matches_fresh():
    # Relative error: an ill-conditioned selected block can push the
    # pseudo-inverse norm to ~1/rank_tol, where absolute Frobenius is
    # meaningless.
    rng = np.random.default_rng(29)
    for rank in (8, 4):
        sigma = rand_psd(rng, 8, rank)
        current = []
        pinv = np.zeros((0, 0))
        for i in [5, 1, 7, 2]:
            pinv = symmat.pinv_add(pinv, sigma, current, i)
            current.append(i)
            fresh = symmat.pseudo_inverse(sigma[np.ix_(current, current)])
            assert rel_err(pinv, fresh) < 1e-8


def test_pinv_remove_matches_fresh():
    rng = np.random.default_rng(31)
    sigma = rand_psd(rng, 7)
    current = [2, 6, 0, 4]
    pinv = symmat.pseudo_inverse(sigma[np.ix_(current, current)])
    got = symmat.pinv_remove(pinv, 1)
    kept = [2, 0, 4]
    assert np.linalg.norm(got - symmat.pseudo_inverse(sigma[np.ix_(kept, kept)])) < 1e-8


def test_pinv_add_degenerate_column():
    # Appending a variable already in the span exercises the rank-preserving
    # branch of the bordered update.
    g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sigma = g @ g.T
    pinv = symmat.pseudo_inverse(sigma[np.ix_([0, 1], [0, 1])])
    grown = symmat.pinv_add(pinv, sigma, [0, 1], 2)
    fresh = symmat.pseudo_inverse(sigma)
    assert np.linalg.norm(grown - fresh) < 1e-8


def test_pinv_add_in_span_column_at_any_scale():
    # Column 0 is r times column 1, so appending 0 to S = (2, 1) adds no
    # rank; the grown pseudo-inverse must not lose accuracy with r.
    rng = np.random.default_rng(37)
    g = rng.standard_normal((4, 3))
    for r in (1e3, 1e5, 1e6):
        g[0] = r * g[1]
        sigma = g @ g.T
        pinv = symmat.pseudo_inverse(sigma[np.ix_([2, 1], [2, 1])])
        grown = symmat.pinv_add(pinv, sigma, [2, 1], 0)
        fresh = symmat.pseudo_inverse(sigma[np.ix_([2, 1, 0], [2, 1, 0])])
        assert np.linalg.norm(grown - fresh) <= 1e-8 * np.linalg.norm(fresh), r
        assert np.all(grown.diagonal() >= 0.0), r
