"""Symmetric-matrix kernel.

Everything in the toolkit that touches spectra goes through this module, so
that pseudo-inversion, PSD projection, log-determinants, and rank decisions
all share one eigendecomposition backend (:func:`numpy.linalg.eigh`) and
one cutoff, ``RANK_TOL``, applied free of the units of every variable by
two tests:

* a variable adds rank to a subset when its residual variance exceeds
  ``RANK_TOL`` times its own variance (:func:`adds_rank`), the one pivot and
  perfect-fit test of the package;
* a block is singular when its unit-diagonal form ``D m D``, with
  ``D = diag(m)^(-1/2)``, has an eigenvalue at or below ``RANK_TOL *
  lambda_max`` (:func:`log_det`; :func:`ginv`, the generalised inverse
  behind every Schur complement and canonical correlation);
* an eigenvalue below ``-RANK_TOL * lambda_max`` raises
  :class:`~csskit.errors.NotPSD`; a singular log-determinant is ``-inf``.

The two tests can disagree near the cutoff.  For unit variances with
``1 - rho**2 = 3e-10`` the second variable's pivot ``3e-10`` adds rank,
but the block's eigenvalue ``1 - rho = 1.5e-10`` is under the cutoff
``2e-10``, so :func:`log_det` of the block is ``-inf``.

The rank-one subset updates (:func:`residual_add`, :func:`pinv_add`,
:func:`pinv_remove`) are the workhorses of the search algorithms; they
trust the state they are given (:func:`csskit.criteria.init_state`).  The
residual update is formed as ``outer(g, g)``, which keeps an exactly
symmetric residual exactly symmetric.  A block pseudo-inverse is updated
only by an exact identity, else freshly pseudo-inverted: :func:`pinv_add`
borders it when the new variable adds rank, and :func:`pinv_remove` is the
Schur downdate of a nonsingular block; both re-symmetrize.  Tiny negative
diagonal entries are clamped to zero; selected rows and columns of a
residual decay to roughly machine scale but are never zeroed exactly.
"""

import math
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


def complement(p: int, subset: Sequence[int]) -> np.ndarray:
    """The indices of ``[0, p)`` not in ``subset``, ascending."""
    mask = np.ones(p, dtype=bool)
    mask[list(subset)] = False
    return np.flatnonzero(mask)


def as_symmetric(m: np.ndarray) -> SymMatrix:
    """Validate a matrix as symmetric and return it exactly symmetric.

    Asymmetry up to ``1e-8 * |m|_max`` is attributed to I/O roundoff and
    symmetrized away in a copy; anything larger raises :class:`DimMismatch`,
    whatever the units of ``m``.  An exactly symmetric ``m`` is returned
    as it is (its symmetrization would equal it bit for bit).
    NaN or infinity raises :class:`NonFinite`.
    """
    m = np.asarray(m, dtype=float)
    _check_square(m)
    if not m.size:
        return m
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or infinity")
    d = m - m.T
    gap = float(np.max(np.abs(d, out=d)))
    if gap > 1e-8 * max(float(m.max()), -float(m.min())):
        raise DimMismatch(f"matrix is not symmetric (max asymmetry {gap:g})")
    return m if gap == 0.0 else _sym(m)


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

    With ``beta = res[:, i]`` the update is ``res - outer(g, g)``, ``g =
    beta / sqrt(beta[i])``, provided variable ``i``, of own variance ``var``
    (its ``sigma_ii``), adds rank: ``adds_rank(beta[i], var)``.  Otherwise it
    is already (numerically) in the span of the selection and the residual
    is returned unchanged.  Unchecked: ``res`` and ``i`` come from
    :func:`csskit.criteria.advance`.
    """
    pivot = float(res[i, i])
    if not adds_rank(pivot, var):
        return res
    g = res[:, i] / math.sqrt(pivot)
    return _clamp_diag(res - np.outer(g, g))


def pinv_add(
    block_pinv: SymMatrix,
    sigma: SymMatrix,
    current: Sequence[int],
    i: int,
) -> SymMatrix:
    """Grow a selected-block pseudo-inverse by one variable.

    Given ``block_pinv = pinv(sigma[U, U])`` for the ordered subset ``U``,
    returns ``pinv(sigma[V, V])`` for ``V = U + (i,)``.

    With ``b = sigma[U, i]``, ``c = sigma[i, i]``, ``d = block_pinv @ b`` and
    Schur complement ``s = c - b @ d``: when ``adds_rank(s, c)``, the
    bordered identity ``[[P + d d^T/s, -d/s], [-d^T/s, 1/s]]`` is exact
    (``sigma`` is PSD, so ``b`` lies in the range of ``sigma[U, U]``) and
    costs O(k^2).  Otherwise the grown block is freshly pseudo-inverted.
    Unchecked: the arguments come from :func:`csskit.criteria.advance`.
    """
    k = len(current)
    idx = list(current)
    b = sigma[idx, i]
    c = float(sigma[i, i])
    d = block_pinv @ b
    s = c - float(b @ d)
    if not adds_rank(s, c):
        v = idx + [i]
        return pseudo_inverse(sigma[np.ix_(v, v)])
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = block_pinv + np.outer(d, d / s)
    out[:k, k] = -d / s
    out[k, :k] = -d / s
    out[k, k] = 1.0 / s
    return _sym(out)


def pinv_remove(block_pinv: SymMatrix, position: int) -> SymMatrix:
    """Shrink the inverse of a nonsingular block by the variable at
    ``position``.

    Partitioning ``block_pinv`` with the removed variable last as
    ``[[P, q], [q^T, r]]``, the inverse of the remaining block is the Schur
    downdate ``P - q q^T / r``, exact when the block is nonsingular.  A
    singular block has no such identity; its caller pseudo-inverts the
    remaining block afresh (see :func:`csskit.criteria.retract`).  Cost
    O(k^2).  Unchecked: the arguments come from
    :func:`csskit.criteria.retract`.
    """
    keep = np.arange(block_pinv.shape[0]) != position
    q = block_pinv[keep, position]
    r = float(block_pinv[position, position])
    return _sym(block_pinv[keep][:, keep] - np.outer(q, q / r))
