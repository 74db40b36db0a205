"""Symmetric-matrix kernel.

Everything in the toolkit that touches spectra goes through this module, so
that pseudo-inversion, PSD projection, log-determinants, and rank decisions
all share one eigendecomposition backend (:func:`numpy.linalg.eigh`) and
one cutoff, ``RANK_TOL``, applied free of the units of every variable.
Two tests decide rank:

* a variable adds rank to a subset when its residual variance exceeds
  ``RANK_TOL`` times its own variance (:func:`adds_rank`), the one pivot and
  perfect-fit test of the package;
* a block is singular when its unit-diagonal form ``D m D``, with
  ``D = diag(m)^(-1/2)``, has an eigenvalue at or below ``RANK_TOL *
  lambda_max`` (:func:`log_det`; :func:`ginv`, the generalised inverse
  behind every Schur complement and canonical correlation).

Beside them stands one convention, which is not a rank test: an
eigenvalue below ``-RANK_TOL * lambda_max`` raises
:class:`~csskit.errors.NotPSD`, and a singular log-determinant is ``-inf``.

The two tests can disagree near the cutoff.  For unit variances with
``1 - rho**2 = 3e-10`` the second variable's pivot ``3e-10`` adds rank,
but the block's eigenvalue ``1 - rho = 1.5e-10`` is under the cutoff
``2e-10``, so :func:`log_det` of the block is ``-inf``.

The subset updates are the workhorses of the search algorithms; they
trust the state they are given (:func:`csskit.criteria.init_state`).  A
residual covariance is carried by its :class:`Factor`, ``R = sigma - L
L^T`` with ``diag R`` (and optionally ``diag R^2``), never as a dense
matrix: :func:`residual_add` appends a column to ``L`` when a variable joins
and adds rank, and :func:`residual_remove` reflects one out by a
Householder reflection when one leaves, each in O(pr) plus at most one
``sigma``-matvec.  :meth:`Factor.residual` forms the dense ``R`` on demand,
exactly symmetric, with tiny negative diagonal entries (roundoff) clamped
to zero; selected rows and columns decay to roughly machine scale but are
never zeroed exactly.  CanonCorr's block inverse ``(Omega_SS)^-1``,
``Omega = sigma^-1``, is updated only by an exact identity, else freshly
pseudo-inverted: :func:`pinv_add` borders it when the new variable adds
rank, and :func:`pinv_remove` is the Schur downdate of a nonsingular
block; both re-symmetrize.
"""

import math
from typing import NamedTuple, Optional, Sequence, Tuple

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
    spectrum = _unit_spectrum(m)
    if spectrum is None:
        return float("-inf")
    return float(np.sum(np.log(spectrum[1])) + np.sum(np.log(m.diagonal())))


def inverse(m: SymMatrix, cond_max: float) -> Optional[SymMatrix]:
    """Inverse of a nonempty symmetric PSD matrix as ``D (D m D)^-1 D``,
    from one eigendecomposition of its unit-diagonal form ``D m D``, or
    None when the condition number of ``D m D`` exceeds ``cond_max`` or
    ``m`` is singular by the rule of :func:`log_det`.  Raises
    :class:`~csskit.errors.NotPSD` when ``m`` is indefinite."""
    spectrum = _unit_spectrum(np.asarray(m, dtype=float))
    if spectrum is None:
        return None
    d, w, v = spectrum
    if float(w[0]) > cond_max * float(w[-1]):
        return None
    return _sym(d[:, None] * np.dot(v / w, v.T) * d[None, :])


def _unit_spectrum(m: SymMatrix) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(d, values, vectors)`` of the unit-diagonal form ``D m D``, ``D =
    diag(d)``, ``d = diag(m)^(-1/2)``, or None when ``m`` is singular: a
    zero diagonal entry, or an eigenvalue of ``D m D`` at or below
    ``RANK_TOL * lambda_max``."""
    dg = m.diagonal()
    if float(np.min(dg)) <= 0.0:
        _psd_spectrum(m)  # raises NotPSD when m is indefinite
        return None
    d = 1.0 / np.sqrt(dg)
    w, v, cut = _psd_spectrum(d[:, None] * m * d[None, :])
    if float(w[-1]) <= cut:
        return None
    return d, w, v


# ---------------------------------------------------------------------------
# Residual covariances and their factored updates
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


class Factor(NamedTuple):
    """The residual covariance of a subset, ``R = sigma - L L^T``, by factor.

    ``L`` (``p x r``) has one column per selected variable that added rank
    to the ones before it, so that ``L L^T = sigma[:, U] ginv(sigma_U)
    sigma[U, :]``; ``diag = diag R``.  Row j of ``lt`` is column j of ``L``,
    so a column is added or dropped as one contiguous row.  With squares,
    the factor also carries ``diag_sq = diag R^2`` (the squared column norms
    of ``R``), and row j of ``lt`` goes on with column j of ``sigma L``,
    which keeps ``diag_sq`` up to date; without, ``diag_sq`` is None.
    Values, never updated in place.
    """

    lt: np.ndarray
    diag: np.ndarray
    diag_sq: Optional[np.ndarray]

    @classmethod
    def empty(cls, sigma: SymMatrix, squares: bool) -> "Factor":
        """The factor of the empty subset: ``R = sigma``."""
        p = sigma.shape[0]
        diag = sigma.diagonal().copy()
        if not squares:
            return cls(np.zeros((0, p)), diag, None)
        return cls(np.zeros((0, 2 * p)), diag, np.einsum("ij,ij->i", sigma, sigma))

    def residual(self, sigma: SymMatrix) -> SymMatrix:
        """``sigma - L L^T`` as a dense ``p x p`` matrix, O(p^2 r)."""
        l = self.lt[:, : self.diag.shape[0]]
        return _clamp_diag(_sym(sigma - np.dot(l.T, l)))

    def columns(self, sigma: SymMatrix, idx: np.ndarray) -> np.ndarray:
        """``R[:, idx] = sigma[:, idx] - L L[idx]^T``, O(pr) per column."""
        l = self.lt[:, : self.diag.shape[0]]
        return sigma[:, idx] - np.dot(l.T, self.lt.take(idx, 1))

    def block(self, sigma: SymMatrix, idx: np.ndarray) -> SymMatrix:
        """``R[idx, idx] = sigma[idx, idx] - L[idx] L[idx]^T``."""
        li = self.lt.take(idx, 1)
        return sigma.take(idx, 0).take(idx, 1) - np.dot(li.T, li)


def residual_add(sigma: SymMatrix, factor: Factor, i: int) -> Factor:
    """Append variable ``i`` to a residual factor.

    With pivot ``R_ii = factor.diag[i]`` the new column of ``L`` is ``g =
    (sigma[:, i] - L L[i]^T) / sqrt(R_ii)`` and the residual becomes ``R - g
    g^T``, in O(pr).  With squares, the matvec ``sigma g`` gives the new
    column of ``sigma L`` and ``diag (R - g g^T)^2 = diag R^2 - g * (2 Rg -
    |g|^2 g)``, in O(p^2).  A variable that does not add rank,
    ``adds_rank(R_ii, sigma_ii)`` false, is already (numerically) in the
    span of the selection, and the factor is returned unchanged.
    Unchecked: the arguments come from :func:`csskit.criteria.advance` and
    :func:`csskit.criteria.retract`.
    """
    pivot = float(factor.diag[i])
    if not adds_rank(pivot, sigma[i, i]):
        return factor
    lt = factor.lt
    r = lt.shape[0]
    p = sigma.shape[0]
    l = lt[:, :p]
    g = (sigma[i] - np.dot(lt[:, i], l)) / math.sqrt(pivot)  # row i of sigma is its column i
    new = np.empty((r + 1, lt.shape[1]))
    new[:r] = lt
    new[r, :p] = g
    diag = np.maximum(factor.diag - g * g, 0.0)
    if factor.diag_sq is None:
        return Factor(new, diag, None)
    sg = new[r, p:] = np.dot(sigma, g)
    rg2 = 2.0 * (sg - np.dot(np.dot(l, g), l))
    return Factor(new, diag, factor.diag_sq - g * (rg2 - float(np.dot(g, g)) * g))


def residual_remove(factor: Factor, c: np.ndarray) -> Factor:
    """Drop the direction ``h = L u``, ``u = c / |c|``, from a residual factor.

    One Householder reflection ``H`` with ``H u = -+e_r`` turns ``L`` into
    ``L H``, whose last column is ``-+h``; the other ``r - 1`` columns are
    the new factor, and the residual becomes ``R + h h^T``.  With squares,
    ``sigma L`` is reflected alike, which gives ``sigma h`` without a
    matvec, and ``diag (R + h h^T)^2 = diag R^2 + h * (2 Rh + |h|^2 h)``.
    Cost O(pr).  Unchecked: the arguments come from
    :func:`csskit.criteria.retract`.
    """
    lt = factor.lt
    p = factor.diag.shape[0]
    v = c / math.sqrt(float(np.dot(c, c)))
    hs = np.dot(v, lt)
    h = hs[:p]
    diag = factor.diag + h * h
    diag_sq = factor.diag_sq
    if diag_sq is not None:
        l = lt[:, :p]
        rh2 = 2.0 * (hs[p:] - np.dot(np.dot(l, h), l))
        diag_sq = diag_sq + h * (rh2 + float(np.dot(h, h)) * h)
    last = float(v[-1])
    v[-1] += 1.0 if last >= 0.0 else -1.0  # u + sign(u_r) e_r, so |v|^2 = 2 + 2 |u_r|
    new = np.multiply.outer(v[:-1] / (1.0 + abs(last)), np.dot(v, lt))
    np.subtract(lt[:-1], new, out=new)
    return Factor(new, diag, diag_sq)


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
    out[:k, :k] = block_pinv + d[:, None] * (d / s)
    out[:k, k] = out[k, :k] = -d / s
    out[k, k] = 1.0 / s
    return _sym(out)


def pinv_remove(block_pinv: SymMatrix, position: int) -> SymMatrix:
    """Shrink the inverse of a nonsingular block by the variable at
    ``position``.

    Partitioning ``block_pinv`` with the removed variable last as
    ``[[P, q], [q^T, r]]``, the inverse of the remaining block is the Schur
    downdate ``P - q q^T / r``, exact when the block is nonsingular, as
    every block of CanonCorr's nonsingular ``Omega`` is.  Cost O(k^2).
    Unchecked: the arguments come from
    :func:`csskit.criteria.retract`.
    """
    keep = np.arange(block_pinv.shape[0]) != position
    q = block_pinv[keep, position]
    r = float(block_pinv[position, position])
    return _sym(block_pinv[keep][:, keep] - q[:, None] * (q / r))
