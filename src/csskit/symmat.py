"""Symmetric-matrix kernel.

Everything in the toolkit that touches spectra goes through this module, so
that pseudo-inversion, PSD projection, log-determinants, and rank decisions
all share one eigendecomposition backend (:func:`numpy.linalg.eigh`) and one
rank rule, free of the units of every variable:

* a variable adds rank to a subset when its residual variance exceeds
  ``RANK_TOL`` times its own variance (:func:`adds_rank`), the one pivot and
  perfect-fit test of the package;
* a block is singular when its unit-diagonal form ``D m D``, with
  ``D = diag(m)^(-1/2)``, has an eigenvalue at or below ``RANK_TOL *
  lambda_max`` (:func:`log_det`; :func:`ginv`, the generalised inverse
  behind every Schur complement and canonical correlation);
* an eigenvalue below ``-RANK_TOL * lambda_max`` raises
  :class:`~csskit.errors.NotPSD`; a singular log-determinant is ``-inf``.

The rank-one subset updates (:func:`residual_add`, :func:`pinv_add`,
:func:`pinv_remove`) are the workhorses of the search algorithms.  After every
update the result is re-symmetrized and tiny negative diagonal entries are
clamped to zero; selected rows and columns of a residual decay to roughly
machine scale but are never zeroed exactly.
"""

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimMismatch, NonFinite, NotPSD

# The one relative cutoff behind every rank decision in the package.
RANK_TOL = 1e-10

SymMatrix = np.ndarray
IndexSet = Tuple[int, ...]


class EigenDecomp(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``vectors[:, j]`` is the unit eigenvector for ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def _sym(m: np.ndarray) -> np.ndarray:
    """Exact symmetrization, ``(m + m.T) / 2``."""
    return (m + m.T) / 2.0


def _clamp_diag(m: np.ndarray) -> np.ndarray:
    """Clamp tiny negative diagonal entries (roundoff) to zero, in place."""
    d = np.einsum("ii->i", m)
    np.maximum(d, 0.0, out=d)
    return m


def _check_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def check_subset(p: int, subset: Sequence[int]) -> IndexSet:
    """Validate an ordered index set against dimension ``p``.

    Entries must be distinct integers in ``[0, p)``.  Order is preserved:
    the search algorithms retract by *position*, so an index set is a
    sequence, not a set.
    """
    out = tuple(int(i) for i in subset)
    for i in out:
        if not 0 <= i < p:
            raise DimMismatch(f"index {i} out of range for dimension {p}")
    if len(set(out)) != len(out):
        raise DimMismatch(f"duplicate indices in subset {out}")
    return out


def as_symmetric(m: np.ndarray) -> SymMatrix:
    """Validate a matrix as symmetric and return an exactly symmetric copy.

    Asymmetry up to ``1e-8 * max(1, |m|_max)`` is attributed to I/O roundoff
    and symmetrized away; anything larger raises :class:`DimMismatch`.
    NaN or infinity raises :class:`NonFinite`.
    """
    m = np.asarray(m, dtype=float)
    _check_square(m)
    if m.size and not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or infinity")
    if m.size:
        gap = float(np.max(np.abs(m - m.T)))
        if gap > 1e-8 * max(1.0, float(np.max(np.abs(m)))):
            raise DimMismatch(f"matrix is not symmetric (max asymmetry {gap:g})")
    return _sym(m)


def eigh_desc(m: SymMatrix) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The single backend for every spectral computation in the package.
    """
    m = np.asarray(m, dtype=float)
    _check_square(m)
    if m.size == 0:
        return EigenDecomp(np.zeros(0), np.zeros((0, 0)))
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or infinity")
    w, v = np.linalg.eigh(_sym(m))
    return EigenDecomp(w[::-1].copy(), v[:, ::-1].copy())


def adds_rank(resid_var, var):
    """The rank rule, elementwise: a variable adds rank to a subset when its
    residual variance ``resid_var`` on the subset exceeds ``RANK_TOL`` times
    its own variance ``var``.  Both scale as its units squared."""
    return resid_var > RANK_TOL * var


def _psd_spectrum(m: SymMatrix) -> Tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition plus the PSD admissibility check.

    Returns ``(values desc, vectors, cut)`` where ``cut`` is the zero
    threshold ``RANK_TOL * lambda_max``.  Raises :class:`NotPSD` if any
    eigenvalue falls below ``-cut``.
    """
    w, v = eigh_desc(m)
    lam_max = max(float(w[0]), 0.0) if w.size else 0.0
    cut = RANK_TOL * lam_max
    if w.size and float(w[-1]) < -cut:
        raise NotPSD(
            f"matrix has eigenvalue {w[-1]:.3e} below -{cut:.3e}; "
            "not positive semidefinite"
        )
    return w, v, cut


def pseudo_inverse(m: SymMatrix) -> SymMatrix:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues at or below ``RANK_TOL * lambda_max`` are treated as exact
    zeros and inverted to zero, so the result satisfies the Moore-Penrose
    identities at the numerical rank.

    Examples
    --------
    >>> pseudo_inverse(np.eye(2)).tolist()
    [[1.0, 0.0], [0.0, 1.0]]
    >>> pseudo_inverse(np.diag([2.0, 0.0])).tolist()
    [[0.5, 0.0], [0.0, 0.0]]
    """
    w, v, cut = _psd_spectrum(m)
    if w.size == 0:
        return np.zeros((0, 0))
    inv = np.where(w > cut, 1.0, 0.0) / np.where(w > cut, w, 1.0)
    return _sym((v * inv) @ v.T)


def psd_project(m: SymMatrix) -> SymMatrix:
    """Project a symmetric matrix onto the PSD cone (Frobenius-closest point).

    Negative eigenvalues are clamped to zero and the matrix is rebuilt.  The
    input may be indefinite; only symmetry and finiteness are required.
    """
    w, v = eigh_desc(m)
    if w.size == 0:
        return np.zeros((0, 0))
    w = np.maximum(w, 0.0)
    return _clamp_diag(_sym((v * w) @ v.T))


def ginv(m: SymMatrix) -> SymMatrix:
    """Generalised inverse ``G = D pseudo_inverse(D m D) D`` with
    ``D = diag(m)^(-1/2)`` (0 for zero variances): ``m G m = m`` for PSD
    ``m``, which is all a Schur complement or a canonical correlation needs,
    and the rank cutoff falls on the unit-diagonal form."""
    m = np.asarray(m, dtype=float)
    dg = m.diagonal()
    d = np.divide(1.0, np.sqrt(np.maximum(dg, 0.0)), out=np.zeros_like(dg), where=dg > 0.0)
    return d[:, None] * pseudo_inverse(d[:, None] * m * d[None, :]) * d[None, :]


def log_det(m: SymMatrix) -> float:
    """Log-determinant of a symmetric PSD matrix, ``-inf`` when singular.

    Computed as ``log det(D m D) + sum(log m_ii)``, ``D = diag(m)^(-1/2)``,
    so singularity (a zero diagonal entry, or an eigenvalue of ``D m D`` at
    or below ``RANK_TOL * lambda_max``) is decided on the unit-diagonal form.
    The empty matrix has log-determinant 0.
    """
    m = np.asarray(m, dtype=float)
    _check_square(m)
    if m.size == 0:
        return 0.0
    dg = m.diagonal()
    if float(np.min(dg)) <= 0.0:
        _psd_spectrum(m)  # raises NotPSD when m is indefinite
        return float("-inf")
    d = 1.0 / np.sqrt(dg)
    w, _, cut = _psd_spectrum(d[:, None] * m * d[None, :])
    if float(w[-1]) <= cut:
        return float("-inf")
    return float(np.sum(np.log(w)) + np.sum(np.log(dg)))


def low_rank_root(x: np.ndarray) -> np.ndarray:
    """Thin root of a Gram matrix: returns ``r`` rows with ``root.T @ root``
    equal to ``x.T @ x``, where ``r`` is the numerical rank of ``x``.

    Useful for compressing an ``n x p`` data matrix with ``n >> p`` (or a
    rank-deficient one) before repeated covariance work.  Singular values at
    or below ``sqrt(RANK_TOL) * s_max`` are dropped, which matches the
    eigenvalue cutoff on the Gram matrix itself.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimMismatch(f"expected a 2-d array, got shape {x.shape}")
    if x.size and not np.all(np.isfinite(x)):
        raise NonFinite("data contains NaN or infinity")
    if x.size == 0:
        return np.zeros((0, x.shape[1]))
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, x.shape[1]))
    r = int(np.sum(s > np.sqrt(RANK_TOL) * s[0]))
    return s[:r, None] * vt[:r]


# ---------------------------------------------------------------------------
# Residual covariances and their rank-one updates
# ---------------------------------------------------------------------------


def residual_covariance(sigma: SymMatrix, subset: Sequence[int]) -> SymMatrix:
    """Residual covariance after projecting out the selected columns.

    For a PSD matrix ``sigma`` and index set ``U`` this is the generalized
    Schur complement ``sigma - sigma[:, U] @ ginv(sigma[U, U]) @ sigma[U, :]``
    as a full ``p x p`` matrix: entry ``(i, j)`` is the covariance of the
    residuals of variables ``i`` and ``j`` after regression on the subset.
    Rows and columns of selected variables come out at roughly machine scale
    (they are never zeroed exactly).

    The empty subset returns a copy of ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = _check_square(sigma)
    u = check_subset(p, subset)
    if not u:
        return sigma.copy()
    idx = list(u)
    cols = sigma[:, idx]
    res = sigma - cols @ (ginv(sigma[np.ix_(idx, idx)]) @ cols.T)
    return _clamp_diag(_sym(res))


def residual_add(res: SymMatrix, i: int, var: float) -> SymMatrix:
    """Rank-one update of a residual covariance when variable ``i`` joins
    the selected set.

    With ``beta = res[:, i]`` the update is ``res - outer(beta, beta) /
    beta[i]`` provided variable ``i``, of own variance ``var`` (its
    ``sigma_ii``), adds rank: ``adds_rank(beta[i], var)``.  Otherwise it is
    already (numerically) in the span of the selection and the residual is
    returned unchanged.
    """
    res = np.asarray(res, dtype=float)
    p = _check_square(res)
    if not 0 <= i < p:
        raise DimMismatch(f"index {i} out of range for dimension {p}")
    pivot = float(res[i, i])
    if not adds_rank(pivot, var):
        return res
    beta = res[:, i]
    out = res - np.outer(beta, beta / pivot)
    return _clamp_diag(_sym(out))


def pinv_add(
    block_pinv: SymMatrix,
    sigma: SymMatrix,
    current: Sequence[int],
    i: int,
) -> SymMatrix:
    """Grow a selected-block pseudo-inverse by one variable.

    Given ``block_pinv = pinv(sigma[U, U])`` for the ordered subset ``U``,
    returns ``pinv(sigma[V, V])`` for ``V = U + (i,)`` in O(k^2) plus the
    cost of gathering one column, using the bordered-inverse identities.

    With ``b = sigma[U, i]``, ``c = sigma[i, i]``, ``d = block_pinv @ b`` and
    Schur complement ``s = c - b @ d``:

    * ``adds_rank(s, c)`` (new variable adds rank): the inverse gains the
      familiar border ``[[P + d d^T/s, -d/s], [-d^T/s, 1/s]]``;
    * otherwise (new variable numerically in the span): the appended column
      satisfies ``b = A d``, and the pseudo-inverse is ``[[G, G d],
      [d^T G, d^T G d]]`` with ``G = Q P Q`` and ``Q = I - d d^T/(1 + d^T d)``.

    Both branches assume ``sigma`` is PSD, which forces ``b`` into the range
    of ``sigma[U, U]``.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = _check_square(sigma)
    u = check_subset(p, current)
    k = len(u)
    block_pinv = np.asarray(block_pinv, dtype=float)
    if block_pinv.shape != (k, k):
        raise DimMismatch(
            f"block_pinv shape {block_pinv.shape} does not match subset size {k}"
        )
    if not 0 <= i < p or i in u:
        raise DimMismatch(f"cannot append index {i} to subset {u}")
    if k == 0:
        return pseudo_inverse(sigma[np.ix_([i], [i])])

    idx = list(u)
    b = sigma[idx, i]
    c = float(sigma[i, i])
    if c < 0:
        raise NotPSD(f"diagonal entry {i} is negative ({c:g})")
    d = block_pinv @ b
    s = c - float(b @ d)
    out = np.empty((k + 1, k + 1))
    if adds_rank(s, c):
        out[:k, :k] = block_pinv + np.outer(d, d / s)
        out[:k, k] = -d / s
        out[k, :k] = -d / s
        out[k, k] = 1.0 / s
    else:
        delta = float(d @ d)
        e = block_pinv @ d
        de = float(d @ e)
        shrink = 1.0 + delta
        g = (
            block_pinv
            - np.outer(d, e / shrink)
            - np.outer(e / shrink, d)
            + (de / shrink**2) * np.outer(d, d)
        )
        gd = g @ d
        out[:k, :k] = g
        out[:k, k] = gd
        out[k, :k] = gd
        out[k, k] = float(d @ gd)
    return _sym(out)


def pinv_remove(
    block_pinv: SymMatrix,
    current: Sequence[int],
    position: int,
    sigma: SymMatrix,
) -> SymMatrix:
    """Shrink a selected-block pseudo-inverse by the variable at ``position``.

    The O(k^2) downdate permutes the removed variable ``v`` last, partitions
    the pseudo-inverse as ``[[P, q], [q^T, r]]``, and returns
    ``P - q q^T / r`` if ``adds_rank(1 / r, sigma_vv)`` (``1 / r`` is the
    residual variance of ``v`` on the rest when it adds rank), else ``P``.
    That identity is exact when ``v`` added rank; when it was dependent on
    the rest there is no O(k^2) recovery from the pseudo-inverse alone, so
    the candidate ``X`` is accepted only if it satisfies ``A X A = A`` and
    ``X A X = X`` for the reduced block ``A`` of ``sigma`` (within ``1e-8``
    relative Frobenius); otherwise ``A`` is freshly pseudo-inverted.
    """
    block_pinv = np.asarray(block_pinv, dtype=float)
    k = _check_square(block_pinv)
    u = tuple(int(j) for j in current)
    if len(u) != k:
        raise DimMismatch(
            f"block_pinv of size {k} does not match subset of size {len(u)}"
        )
    if not 0 <= position < k:
        raise DimMismatch(f"position {position} out of range for subset size {k}")
    keep = [j for j in range(k) if j != position]
    perm = keep + [position]
    mp = block_pinv[np.ix_(perm, perm)]
    pblock = mp[: k - 1, : k - 1]
    q = mp[: k - 1, k - 1]
    r = float(mp[k - 1, k - 1])
    sigma = np.asarray(sigma, dtype=float)
    if r > 0.0 and adds_rank(1.0 / r, sigma[u[position], u[position]]):
        cand = pblock - np.outer(q, q / r)
    else:
        cand = pblock.copy()
    cand = _sym(cand)
    rest = [u[j] for j in keep]
    a = sigma[np.ix_(rest, rest)]
    norm_a = float(np.linalg.norm(a))
    norm_x = float(np.linalg.norm(cand))
    ax = a @ cand
    axa_ok = float(np.linalg.norm(ax @ a - a)) <= 1e-8 * max(norm_a, 1e-300)
    xax_ok = float(np.linalg.norm(cand @ ax - cand)) <= 1e-8 * max(norm_x, 1e-300)
    if not (axa_ok and xax_ok):
        cand = pseudo_inverse(a)
    return cand
