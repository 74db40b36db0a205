"""Symmetric-matrix kernels: pseudo-inverse, residuals, rank-one updates."""

import itertools
import math
import tracemalloc

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


def _planted_cells(p):
    """Off-diagonal cells in the first row panel of :func:`as_symmetric`'s
    check, in its last row panel and in the last column."""
    return [(0, 1), (p - 1, p - 2), (max(0, p // 2 - 1), p - 1)]


@pytest.mark.parametrize("p", [1, 2, 41, 200, 777])
def test_as_symmetric_matches_the_full_difference(p):
    rng = np.random.default_rng(p)
    g = rng.uniform(-1.0, 1.0, (p, p))
    sym = (g + g.T) / 2.0
    sym[0, 0] = 3.0  # the largest entry, whatever is planted below
    assert symmat.as_symmetric(sym) is sym
    tol = 1e-8 * 3.0
    for i, j in _planted_cells(p) if p > 1 else []:
        for factor in (1.01, 0.99):
            m = sym.copy()
            m[i, j] = m[j, i] + factor * tol
            gap = float(np.max(np.abs(m - m.T)))
            if factor > 1.0:
                assert gap > tol
                with pytest.raises(DimMismatch, match=rf"max asymmetry {gap:g}\)"):
                    symmat.as_symmetric(m)
            else:
                assert 0.0 < gap <= tol
                assert symmat.as_symmetric(m).tobytes() == ((m + m.T) / 2.0).tobytes()
    for cell, value in [((p - 1, 0), np.nan), ((0, 0), np.inf), ((p - 1, p - 1), -np.inf)]:
        if p == 1 and np.isnan(value):
            continue  # no strict lower triangle
        m = sym.copy()
        m[cell] = value
        with pytest.raises(NonFinite):
            symmat.as_symmetric(m)


def test_eigvals_desc_matches_eigh_desc():
    rng = np.random.default_rng(11)
    m = rand_psd(rng, 30, rank=12) - 0.01 * np.eye(30)
    w = symmat.eigvals_desc(m)
    assert np.all(np.diff(w) <= 0)
    assert_allclose(w, symmat.eigh_desc(m).values, atol=1e-13)
    assert symmat.eigvals_desc(np.zeros((0, 0))).shape == (0,)
    with pytest.raises(NonFinite):
        symmat.eigvals_desc(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_check_subset():
    assert symmat.check_subset(5, [3, 1]) == (3, 1)
    with pytest.raises(DimMismatch):
        symmat.check_subset(3, [0, 3])
    with pytest.raises(DimMismatch):
        symmat.check_subset(3, [1, 1])
    # a float entry is refused, not truncated to the index below it
    for bad in ([1.7, 2.2], [1.0], [np.float64(2.0)], [0, "1"]):
        with pytest.raises(DimMismatch, match="not an integer"):
            symmat.check_subset(4, bad)
    got = symmat.check_subset(4, np.array([3, 1]))
    assert got == (3, 1) and all(type(i) is int for i in got)
    # a bool is not an index, Python's (once read as 1) or numpy's
    for bad in ([True, 3], [False], np.array([True, False]), [np.bool_(True)]):
        with pytest.raises(DimMismatch, match="not an integer"):
            symmat.check_subset(4, bad)


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
    for bad in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(NotPSD):
            symmat.log_det(bad)


def test_log_det_singular_by_the_pivot_rule():
    # The second variable's pivot 1 - rho^2 adds rank at 3e-10 and not at
    # 5e-11, the search's rank rule, at any units of the two variables.
    for gap in (3e-10, 5e-11):
        rho = np.sqrt(1.0 - gap)
        c = np.array([[1.0, rho], [rho, 1.0]])
        for d in (np.ones(2), np.array([1e-6, 1e6]), np.array([1e6, 1e6]), np.array([1e-6, 1e-6])):
            got = symmat.log_det(d[:, None] * c * d[None, :]) - 2.0 * np.sum(np.log(d))
            if gap > symmat.RANK_TOL:
                assert_allclose(got, np.log(gap), rtol=1e-5)
            else:
                assert got == -np.inf
    # Three variables spanning a plane, the first two nearly collinear: in
    # the given order a pivot's roundoff grows to about eps / 1e-7 and can
    # pass the cutoff; the largest pivot first reads the block as singular.
    for t in range(50):
        rng = np.random.default_rng(t)
        x = rng.standard_normal((2, 3))
        x[:, 1] = x[:, 0] + 3e-4 * rng.standard_normal(2)
        x[:, 2] = x[:, 0] + (x[:, 1] - x[:, 0]) / 3e-4
        assert symmat.log_det(x.T @ x) == -np.inf, t


def test_log_det_reads_a_residual_block_on_its_variables_variances():
    # A perfect fit leaves a residual block of roundoff, here indefinite on
    # its own diagonal; on the variables' own variances it adds no rank.
    block = np.array([[1e-14, 2e-14], [2e-14, 1e-14]])
    with pytest.raises(NotPSD):
        symmat.log_det(block)
    assert symmat.log_det(block, var=np.ones(2)) == -np.inf
    # every 8-subset of a rank-8 sigma fits the other two variables
    # perfectly (one such block once read as indefinite)
    rng = np.random.default_rng(2024)
    for _ in range(294):
        g = rng.standard_normal((10, 8))
    sigma = g @ g.T / 10
    for subset in itertools.combinations(range(10), 8):
        comp = symmat.complement(10, subset)
        res = symmat.residual_covariance(sigma, subset)[np.ix_(comp, comp)]
        assert symmat.log_det(res, sigma.diagonal()[comp]) == -np.inf, subset
    # a residual block read on larger variances has the same pivots' verdicts
    assert_allclose(symmat.log_det(np.diag([0.5, 3e-10]), var=[1.0, 1.0]), np.log(1.5e-10), rtol=1e-12)
    assert symmat.log_det(np.diag([0.5, 5e-11]), var=[1.0, 1.0]) == -np.inf


def test_inverse():
    c = np.array([[1.0, 0.99], [0.99, 1.0]])  # unit-diagonal condition number 199
    d = np.array([1e-3, 1e3])
    got = symmat.inverse(d[:, None] * c * d[None, :], cond_max=1e4)
    assert_allclose(d[:, None] * got * d[None, :], np.linalg.inv(c), rtol=1e-12)
    assert np.array_equal(got, got.T)  # M^T M from the Cholesky factor
    assert symmat.inverse(c, cond_max=100.0) is None
    for singular in (np.ones((2, 2)), np.diag([1.0, 0.0]), np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])):
        assert symmat.inverse(singular, cond_max=1e4) is None
    with pytest.raises(NotPSD):
        symmat.inverse(np.array([[1.0, 2.0], [2.0, 1.0]]), cond_max=1e4)


def _inverse_by_eigenvalues(m, cond_max):
    # The condition rule read from the eigenvalues of D m D alone, as
    # symmat.inverse decided it before its norm bounds: the oracle of the
    # parity test below.
    m = np.asarray(m, dtype=float)
    dg = m.diagonal()
    d = 1.0 / np.sqrt(np.where(dg > 0.0, dg, 1.0))
    unit = d[:, None] * m * d[None, :]
    w = symmat.eigvals_desc(unit)
    symmat._psd_cut(w)
    if float(np.min(dg)) <= 0.0 or float(w[0]) > cond_max * float(w[-1]):
        return None
    half = np.linalg.inv(np.linalg.cholesky(unit))
    half *= d
    return np.dot(half.T, half)


def _outcome(fn, m):
    try:
        return fn(m, 1e4)
    except NotPSD as e:
        return str(e)


def test_inverse_decides_as_the_eigenvalue_rule(monkeypatch):
    # About 2 000 sigma, p = 3-40, unit-diagonal condition numbers 1e1-1e6
    # and many in 5e3-2e4, with one tiny eigenvalue or a spread spectrum,
    # each variable rescaled by 10^U(-3, 3); 2 x 2 matrices within 1e-13 to
    # 1e-3 (relative) of cond_max, where both bounds are tight; and a zero
    # variance, a singular and an indefinite sigma.  Each gives the
    # eigenvalue rule's None, NotPSD or inverse, bit for bit, and only the
    # cases between the bounds read eigenvalues.
    rng = np.random.default_rng(397)
    cases = []
    for t in range(2000):
        p = int(rng.integers(3, 41))
        cond = 10.0 ** (rng.uniform(1.0, 6.0) if t % 2 else rng.uniform(math.log10(5e3), math.log10(2e4)))
        q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        if t % 4 < 2:
            w = rng.uniform(0.5, 2.0, p)
            w[-1] = 1.0 / cond
        else:
            w = np.geomspace(1.0, 1.0 / cond, p)
        c = (q * w) @ q.T
        s = 10.0 ** rng.uniform(-3.0, 3.0, p)
        cases.append(symmat.as_symmetric(s[:, None] * ((c + c.T) / 2.0) * s))
    for rel in 10.0 ** np.linspace(-13.0, -3.0, 21):
        for cond in (1e4 * (1.0 - rel), 1e4 * (1.0 + rel)):
            rho = (cond - 1.0) / (cond + 1.0)  # condition number (1 + rho) / (1 - rho)
            cases.append(np.array([[1.0, rho], [rho, 1.0]]) * 10.0 ** rng.uniform(-3.0, 3.0))
    g = rng.standard_normal((6, 4))
    cases += [np.diag([1.0, 0.0, 2.0]), g @ g.T, np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])]
    real, calls, reads, kinds = symmat.eigvals_desc, [], [], set()
    monkeypatch.setattr(symmat, "eigvals_desc", lambda m: calls.append(1) or real(m))
    for m in cases:
        want = _outcome(_inverse_by_eigenvalues, m)
        before = len(calls)
        got = _outcome(symmat.inverse, m)
        reads.append(len(calls) - before)
        kinds.add(type(want).__name__)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        else:
            assert got == want
    assert kinds == {"ndarray", "NoneType", "str"}
    # with condition numbers spread over 1e1-1e6 the bounds decide most
    # (726 of 1 000); in 5e3-2e4 most fall between them (914 of 1 000)
    assert sum(reads[1:2000:2]) < 400 and 0 < sum(reads[0:2000:2]) < 1000


def test_inverse_holds_under_three_square_arrays():
    # The Cholesky factor, its inverse and Omega come one after the other,
    # and both bounds are taken on the buffers of arrays done with: the
    # peak stays under three p x p arrays (reading the eigenvalues first,
    # inverse held three).
    rng = np.random.default_rng(401)
    p = 600
    sigma = rand_psd(rng, p) + 0.5 * np.eye(p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        symmat.inverse(sigma, 1e4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * p * p * 8, peak / (p * p * 8)


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


def test_psd_project_holds_one_array_beside_its_output():
    # The eigenvectors are scaled in place and multiplied by their own
    # transpose, so beside its input psd_project holds the eigenvectors and
    # the output (three p x p arrays at the peak before).  The product of
    # an array with its own transpose comes out exactly symmetric.
    p = 300
    a = np.random.default_rng(5).standard_normal((p, p))
    a = (a + a.T) / 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = symmat.psd_project(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * p * p, peak / (8 * p * p)
    assert np.array_equal(got, got.T)
    assert np.min(got.diagonal()) >= 0.0


def test_pivots_factor_the_ranked_members():
    # _pivots, the one pivoted Cholesky: L L^T reproduces the block of the
    # ranked members, with L^T = triu(lt[:, ranked]) and pivots diag(L)^2,
    # and log_det reads its value from those pivots.  Three variables on a
    # plane rank two of them; a near-collinear pair is taken again largest
    # first; a full-rank block keeps its given order.
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3))
    x[:, 2] = x[:, 0] - 2.0 * x[:, 1]
    eps2 = 3e-10
    near = np.array([[1.0, 1.0], [1.0, 1.0 + eps2]])
    near = near / np.sqrt(np.outer(near.diagonal(), near.diagonal()))
    for m, rank in ((x.T @ x, 2), (near, 2), (rand_psd(rng, 5) + 0.1 * np.eye(5), 5)):
        d = 1.0 / np.sqrt(m.diagonal())
        m = d[:, None] * m * d[None, :]
        ranked, lt, pivots = symmat._pivots(m)
        assert ranked.size == rank == len(lt) == len(pivots)
        upper = np.triu(lt[:, ranked])
        assert_allclose(upper.T @ upper, m[np.ix_(ranked, ranked)], atol=1e-12)
        assert_allclose(upper.diagonal() ** 2, pivots, rtol=1e-12)
        assert np.all(symmat.adds_rank(pivots, 1.0))
        if rank == len(m):
            assert symmat.log_det(m) == float(np.sum(np.log(pivots)) + np.sum(np.log(m.diagonal())))
        else:
            assert symmat.log_det(m) == -np.inf
    assert symmat._pivots(np.eye(3))[0].tolist() == [0, 1, 2]
    assert symmat._pivots(np.zeros((0, 0)))[0].size == 0


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


def _one(factor):
    """One factor as a stack of one, the form the kernels take."""
    return factor.map(lambda a: a[None])


def test_residual_add_matches_from_scratch():
    rng = np.random.default_rng(23)
    for rank_frac in (1.0, 0.5):
        for _ in range(10):
            p = int(rng.integers(4, 10))
            sigma = rand_psd(rng, p, max(2, int(p * rank_frac)))
            u = rng.permutation(p)[:3].tolist()
            for order in itertools.permutations(u):
                fac = _one(symmat.Factor.empty(sigma, squares=True))
                for i in order:
                    fac = symmat.residual_add(sigma, fac, np.array([i]))
                res = fac.map(lambda a: a[0]).residual(sigma)
                want = symmat.residual_covariance(sigma, order)
                assert np.linalg.norm(res - want) < 1e-8


def test_residual_add_zero_pivot_is_noop():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    fac = _one(symmat.Factor.empty(sigma, squares=True))
    fac = symmat.residual_add(sigma, fac, np.array([0]))  # variable 1 now redundant
    res = symmat.residual_covariance(sigma, (0,))
    grown = symmat.residual_add(sigma, fac, np.array([1]))
    assert_allclose(grown.map(lambda a: a[0]).residual(sigma), res)
    # a zero column of L, and the diagonals bit for bit
    assert np.array_equal(grown.lt[:, :1], fac.lt) and not grown.lt[:, 1].any()
    assert np.array_equal(grown.diag, fac.diag) and np.array_equal(grown.diag_sq, fac.diag_sq)


def _stack(factors):
    return symmat.Factor(*(None if a[0] is None else np.concatenate(a) for a in zip(*factors)))


def _same_factor(got, want):
    for a, w in zip(got, want):
        assert (a is None and w is None) or np.array_equal(a, w)


def test_residual_kernels_give_each_row_of_a_stack_its_own_bits():
    # swap's lockstep walk moves a stack of factors, and a single run or
    # greedy a stack of one; a row's bits must not depend on the other rows
    # or on how many there are
    rng = np.random.default_rng(41)
    for squares in (False, True):
        for b in (1, 3):
            for _ in range(4):
                p = int(rng.integers(5, 40))
                r = int(rng.integers(1, p - 1))
                sigma = rand_psd(rng, p)
                if rng.random() < 0.5:
                    d = 10.0 ** rng.uniform(-3.0, 3.0, p)
                    sigma = d[:, None] * sigma * d[None, :]
                orders = [rng.permutation(p) for _ in range(b)]
                singles = []
                for order in orders:
                    fac = _one(symmat.Factor.empty(sigma, squares))
                    for i in order[:r]:
                        fac = symmat.residual_add(sigma, fac, np.array([i]))
                    singles.append(fac)
                stack = _stack(singles)
                assert stack.lt.shape == (b, r, 2 * p if squares else p)

                picks = np.array([order[r] for order in orders])
                grown = symmat.residual_add(sigma, stack, picks)
                for t, fac in enumerate(singles):
                    _same_factor(grown.map(lambda a: a[t : t + 1]), symmat.residual_add(sigma, fac, picks[t : t + 1]))

                u = rng.standard_normal((b, r))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                shrunk = symmat.residual_remove(stack, u)
                for t, fac in enumerate(singles):
                    _same_factor(shrunk.map(lambda a: a[t : t + 1]), symmat.residual_remove(fac, u[t : t + 1]))


def test_residual_add_stack_row_without_rank_leaves_the_others():
    # a pick already in the span of a row's selection: that row gets a zero
    # column of L and keeps its diagonals bit for bit, the other rows get
    # their own bits
    rng = np.random.default_rng(5)
    sigma = rand_psd(rng, 8)
    singles = []
    for order in ([0, 1, 2], [3, 4, 5]):
        fac = _one(symmat.Factor.empty(sigma, squares=True))
        for i in order:
            fac = symmat.residual_add(sigma, fac, np.array([i]))
        singles.append(fac)
    grown = symmat.residual_add(sigma, _stack(singles), np.array([1, 6]))
    assert np.array_equal(grown.lt[:1, :3], singles[0].lt) and not grown.lt[0, 3].any()
    assert np.array_equal(grown.diag[:1], singles[0].diag)
    assert np.array_equal(grown.diag_sq[:1], singles[0].diag_sq)
    _same_factor(grown.map(lambda a: a[1:]), symmat.residual_add(sigma, singles[1], np.array([6])))


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
