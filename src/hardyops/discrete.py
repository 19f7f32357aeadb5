"""Graded-mesh 1D discretization of half-line Hardy operators.

The quadratic form (nonlocal difference form for alpha < 2, Dirichlet energy
for alpha = 2, plus the inverse-power Hardy potential) is realized on
piecewise-linear hats over a mesh graded toward the boundary.  For alpha < 2
the domain is truncated at X with a Dirichlet condition understood as
extension by zero.  The regional form on (0, X) is the whole-line form of the
zero-extended hats minus the exterior potential
(A/alpha)(x^{-alpha} + (X - x)^{-alpha}), which is tridiagonal on hats; the
killing potential from (X, infinity) is then added back, lumped onto the
diagonal as its nodal value times the midpoint weight.  Every stiffness below
alpha = 2 is thus a dense part plus three bands; at alpha = 2 it is the three
bands alone, and it is stored as them (see DiscreteOperator).

The whole-line form is assembled in closed form: with hat basis functions the
double integral reduces, via two integrations by parts, to cell-pair
integrals of one kernel family k(r) = r^{1-alpha}/(alpha(alpha-1)) (-ln r at
alpha = 1), whose second derivative is the kernel r^{-1-alpha}.  The pairs of
k(|t - tau|) and the single-cell integrals of k seen from 0 and from X, which
give the exterior bands, come from explicit antiderivatives of k, so no
singular quadrature is needed anywhere (including the diagonal cell pairs).
Where those closed forms would cancel catastrophically (cells far from the
singular point compared with their size), midpoint-Taylor and Gauss rules on
the smooth integrand take over.

Every form is built at one scale.  The forms are homogeneous and the graded
meshes keep that exactly (build_grid(X, N, g) is build_grid(1, N, g) dilated
by X), so assembly and eigensolves run on build_grid(1, N, g) and the caller's
X enters only as the scalars DiscreteOperator documents: dilate moves a
decomposition to another X without touching an array, and the Hardy quotient
does not depend on X.

Below alpha = 2 the whole-line form is written into one preallocated n x n
array (N <= DENSE_SOLVER_CAP) a block of rows at a time, from the columns at
or right of the diagonal, each block's transpose filling the mirror entries:
assembly needs the output plus a few blocks of about _BLOCK_BYTES.  At
alpha = 2 the stiffness is a (2, n) band array of O(N) memory, at any N.
Either layout holds the lambda = 0 form, lam being a scalar that the methods
apply, so forms at several couplings share one stiffness.
DiscreteOperator.matvec is the one product with either layout.  _lowest
gives the lowest eigenvalues against the mass or the Hardy weight, with no
eigenvector.  Functions of the operator come from one of two objects:
eigendecompose gives every eigenpair below alpha = 2, and band_calculus gives
the alpha = 2 calculus from tridiagonal solves, with no eigenvector.

At alpha = 2, with B = M^{-1/2} K M^{-1/2} the scaled bands at unit scale and
mu_1, mu_N its extreme eigenvalues (bisection, LAPACK stebz):
  * B^{-gamma} c, 0 < gamma < 1, is Balakrishnan's integral
    (sin pi gamma / pi) int e^{(1 - gamma) y} (e^y + B)^{-1} c dy on the
    trapezoid rule, step 0.7 from ln mu_1 - 22 to ln mu_N + 22 (about 105
    real SPD solves, LAPACK ptsv, at N = 2000 and g = 2); the nodes past
    either end are summed exactly as geometric series of the leading terms
    B^{-1} c and e^{-y} c.  Other real powers take integer powers first:
    B^beta c is B^{beta - k} (B^k c), k = ceil(beta).
  * e^{-tB} c is e^{-t mu_1} e^{-t(B - mu_1)} c, the second factor the
    Bromwich integral on the parabola s(theta) = (n/t)(0.1309 - 0.1194
    theta^2 + 0.25 i theta) (Weideman and Trefethen, Math. Comp. 76, 2007) at
    n = 32 midpoints, which by conjugate symmetry is 16 complex solves
    (LAPACK gtsv).  Where e^{-t mu_1} underflows the image is 0.
On scalars the power rule is within 2.3e-12 relative over [mu_1, mu_N] and
the contour within 1e-14 of e^{-x} for every x >= 0, whatever the grading.
Against dense eigh of the same bands at X = 10, N = 2000, g = 2 the powers
agree to 4.3e-11 relative and the heat images to 2.5e-13 times the norm.

The spectral calculus takes blocks.  DiscreteOperator.matvec and apply,
the coefficients and synthesize of either calculus, heat_apply, power_apply,
sobolev_norm, mass_norm, and commutator_with_multiplier in its multiplier take
a nodal array of shape (n,) or (n, k) and give one column or value per column
(a per-node vector meets it through _col); a 1-D call gives what it always did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, eigh, eigh_tridiagonal, solve_triangular
from scipy.linalg.lapack import dptsv, zgtsv
from scipy.sparse.linalg import LinearOperator, eigsh

from hardyops.coupling import _check_alpha, normalization_A
from hardyops.specfun import DomainError

DENSE_SOLVER_CAP = 4000
# bytes per row-block temporary of the alpha < 2 assembly
_BLOCK_BYTES = 2 << 20
# Balakrishnan's integral in y = ln(tau) on the trapezoid rule: its step, and
# how far past ln mu_1 and ln mu_N its nodes run
_RIESZ_STEP = 0.7
_RIESZ_PAD = 22.0
# the parabolic Bromwich contour z(theta) = n (0.1309 - 0.1194 theta^2 +
# 0.25 i theta) at the n midpoints of (-pi, pi): the poles z_k and weights
# 2 e^{z_k} z'(theta_k) / (i n) of its upper half, so that e^{-x} is the real
# part of sum_k w_k / (z_k + x) for x >= 0, to 1e-14
_HEAT_NODES = 32
_theta = (np.arange(_HEAT_NODES // 2) + 0.5) * (2.0 * math.pi / _HEAT_NODES)
_HEAT_POLES = _HEAT_NODES * (0.1309 - 0.1194 * _theta ** 2 + 0.25j * _theta)
_HEAT_WEIGHTS = 2.0 * np.exp(_HEAT_POLES) * (-0.2388 * _theta + 0.25j) / 1j
del _theta


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Graded mesh on (0, X): vertices X*(k/N)^g, interior nodes as dofs."""

    vertices: np.ndarray   # (N+1,), vertices[0] = 0, vertices[-1] = X
    nodes: np.ndarray      # (N-1,) interior vertices
    weights: np.ndarray    # (N-1,) midpoint-rule weights, sum ~ X
    X: float
    grading: float
    N: int                 # cell count; dof count is N-1

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.vertices)


def build_grid(X: float, N: int, g: float) -> Grid1D:
    """Graded mesh with node_k = X*(k/N)^g and midpoint cell weights."""
    if not 0.0 < X < math.inf:
        raise DomainError(f"X must be positive and finite, got {X!r}")
    if N < 16:
        raise DomainError(f"N must be at least 16, got {N!r}")
    if not 1.0 <= g < math.inf:
        raise DomainError(f"grading exponent must be finite and >= 1, got {g!r}")
    k = np.arange(N + 1, dtype=float)
    vertices = X * (k / N) ** g
    nodes = vertices[1:-1]
    weights = 0.5 * (vertices[2:] - vertices[:-2])
    return Grid1D(vertices=vertices, nodes=nodes, weights=weights,
                  X=float(X), grading=float(g), N=int(N))


# ---------------------------------------------------------------------------
# Stiffness assembly
# ---------------------------------------------------------------------------

def _form_at(alpha: float, grid: Grid1D) -> str:
    return (f"the discrete form at alpha={alpha}, X={grid.X}, N={grid.N}, "
            f"g={grid.grading}")


def _require_finite(alpha: float, lam: float, grid: Grid1D, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise DomainError(f"{_form_at(alpha, grid)} with lambda={lam!r} is not finite "
                          f"in double precision")


def _require_dense_size(grid: Grid1D) -> None:
    """Checked wherever an n x n array is made, before any work."""
    if grid.N > DENSE_SOLVER_CAP:
        raise DomainError(f"dense solver capped at N={DENSE_SOLVER_CAP}, got N={grid.N}")


def _antider(r: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """n-th antiderivative (n = 0, 1, 2) of the kernel piece k at r >= 0.

    k(r) = r^{1-a}/(a(a-1)) for alpha != 1 and -ln r at alpha = 1, so that
    k'' = r^{-1-a} is the kernel itself; the antiderivatives vanish at r = 0.
    """
    if alpha == 1.0:
        lr = np.log(r, out=np.zeros_like(r), where=r > 0.0)
        if n == 0:
            return -lr
        if n == 1:
            return r - r * lr
        return 0.75 * r ** 2 - 0.5 * r ** 2 * lr
    if n == 0:
        return r ** (1.0 - alpha) / (alpha * (alpha - 1.0))
    kap = 1.0 / (alpha * (alpha - 1.0))
    if n == 1:
        return kap * r ** (2.0 - alpha) / (2.0 - alpha)
    return kap * r ** (3.0 - alpha) / ((2.0 - alpha) * (3.0 - alpha))


def _diag_singular_pairs(grid: Grid1D, alpha: float, a: int, b: int) -> np.ndarray:
    """Cell-pair integrals of k(|t - tau|) over h h', the diagonal-singular
    piece, for cells a..b-1 against cells a..N-1.

    The exact four-point antiderivative formula cancels catastrophically when
    the pair separation D is large compared to the geometric mean of the cell
    sizes (the result is O(h h' k(D)) while the antiderivative values are
    O(D^2 k(D))).  Far pairs, D > max(300 sqrt(h h'), 6 (h + h')), therefore
    use a midpoint Taylor rule instead, which at that separation is accurate
    to O((h/D)^4).

    The Taylor value is formed for the whole block.  The exact formula runs
    only in a window of columns: column j lies outside it when every column
    from j on passes the far test against the block's last row with the
    block's largest cell h_max, mid_j - mid_{b-1} > max(300 sqrt(h_max h_j),
    6 (h_max + h_j)).  Rows nearer the boundary lie further from j and have
    cells no larger than h_max, so such a column is far from every row in
    floating point too; inside the window the per-pair far test chooses.
    """
    v = grid.vertices[a:]
    h = np.diff(v)
    r = b - a
    mid = 0.5 * (v[:-1] + v[1:])
    h_max = np.max(h[:r])
    near = mid - mid[r - 1] <= np.maximum(300.0 * np.sqrt(h_max * h), 6.0 * (h_max + h))
    w = np.flatnonzero(near)[-1] + 1
    D = np.abs(mid[:r, None] - mid[None, :])
    hh = np.outer(h[:r], h)
    corr = (h[:r, None] ** 2 + h[None, :] ** 2) / 24.0
    P = hh * (_antider(D, alpha, 0) + corr * D ** (-1.0 - alpha))
    del corr
    far = D[:, :w] > np.maximum(300.0 * np.sqrt(hh[:, :w]), 6.0 * (h[:r, None] + h[None, :w]))
    Pphi = _antider(np.abs(v[:r + 1, None] - v[None, :w + 1]), alpha, 2)
    exact = Pphi[1:, :-1] + Pphi[:-1, 1:] - Pphi[:-1, :-1] - Pphi[1:, 1:]
    del Pphi
    np.copyto(P[:, :w], exact, where=~far)
    P /= hh
    return P


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GAUSS_NODES = 0.5 * (_GAUSS_NODES + 1.0)   # on (0, 1)
_GAUSS_WEIGHTS = 0.5 * _GAUSS_WEIGHTS


def _cell_integrals(near: np.ndarray, far: np.ndarray, h: np.ndarray,
                    alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """int k(s) ds and 2 int k(s)(s - near) ds over each cell, where s runs
    over the cell's distances (near to far) from the singular point.

    The second is the integral of k(max) over the cell's square.  The
    antiderivative differences lose the digits of near/h (catastrophic for
    the min-variable piece, whose cells near 0 lie about X from their
    singular point), so cells with near > 4h use an 8-point Gauss rule on the
    smooth integrand instead.
    """
    K1 = _antider(far, alpha, 1)
    first = K1 - _antider(near, alpha, 1)
    second = 2.0 * (K1 * h - (_antider(far, alpha, 2) - _antider(near, alpha, 2)))
    gauss = near > 4.0 * h
    hg = h[gauss]
    kv = _antider(near[gauss, None] + hg[:, None] * _GAUSS_NODES, alpha, 0)
    first[gauss] = hg * np.sum(_GAUSS_WEIGHTS * kv, axis=1)
    second[gauss] = 2.0 * hg ** 2 * np.sum(_GAUSS_WEIGHTS * _GAUSS_NODES * kv, axis=1)
    return first, second


def _nonlocal_stiffness(alpha: float, grid: Grid1D) -> np.ndarray:
    """Whole-line fractional form of the zero-extended hats: the dense part of
    every alpha < 2 stiffness, to which assemble_form adds the exterior bands,
    the lumped killing term and the Hardy potential.

    Only the translation-invariant kernel piece k(|t - tau|) survives (hat
    slopes have zero mean, so the constant parts of the double antiderivative
    drop).  Built in blocks of rows, each from the columns at or right of its
    diagonal; the form is exactly symmetric (an entry and its mirror add the
    same pairs), so each block's transpose fills the mirror entries below it.
    Hat i has slope +1/h_i on cell i and -1/h_{i+1} on cell i + 1.
    """
    n = grid.N - 1
    K = np.empty((n, n), dtype=grid.vertices.dtype)
    A = normalization_A(1, alpha)
    rows = max(1, _BLOCK_BYTES // (8 * grid.N))
    with np.errstate(all="ignore"):
        for a in range(0, n, rows):
            b = min(a + rows, n)
            P = _diag_singular_pairs(grid, alpha, a, b + 1)
            blk = K[a:b, a:]
            np.add(P[:-1, :-1], P[1:, 1:], out=blk)
            blk -= P[1:, :-1] + P[:-1, 1:]
            blk *= A
            K[b:, a:b] = blk[:, b - a:].T
    return K


def _exterior_bands(grid: Grid1D, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the regional minus the whole-line form, over A; on hats this
    is -(1/alpha) int phi_i phi_j (x^{-alpha} + (X - x)^{-alpha}), the pieces
    -k(b) - k(X - a) of the parts-integrated kernel at a = min, b = max.  m is
    the mean of k over a cell, f that of k(max) over its square, seen from 0
    or (mX, fX) from X; hat i spans cells i and i + 1.
    """
    v = grid.vertices
    h = grid.cell_lengths
    first, second = _cell_integrals(v[:-1], v[1:], h, alpha)
    m, f = first / h, second / h ** 2
    first, second = _cell_integrals(grid.X - v[1:], grid.X - v[:-1], h, alpha)
    mX, fX = first / h, second / h ** 2
    diag = 2.0 * m[1:] - f[:-1] - f[1:] + 2.0 * mX[:-1] - fX[:-1] - fX[1:]
    off = f[1:-1] - m[1:-1] + fX[1:-1] - mX[1:-1]
    return diag, off


def _local_bands(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the classical P1 Dirichlet stiffness."""
    d = 1.0 / grid.cell_lengths
    return d[:-1] + d[1:], -d[1:-1]


def _power(op: DiscreteOperator, e: float) -> float:
    """op.grid.X ** e, the scalar that takes a unit-scale quantity of op to its
    X.  A scalar that is not a finite normal double raises DomainError."""
    with np.errstate(over="ignore", under="ignore"):
        v = float(np.float64(op.grid.X) ** e)
    if not np.finfo(float).tiny <= v < math.inf:
        raise DomainError(f"{_form_at(op.alpha, op.grid)} needs X**{e:g} = {v!r}, "
                          f"outside the normal double range")
    return v


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric matrix realization of the quadratic form on a Grid1D.

    The arrays are built on build_grid(1, grid.N, grid.grading), whatever
    grid.X is.  At X = grid.X the stiffness and the Hardy weight are
    X^{1-alpha} times them and the lumped mass is X times mass, so M^{-1} K
    and its eigenvalues scale by X^{-alpha}, the mass-orthonormal
    eigenvectors by X^{-1/2} and the mass norm by X^{1/2}.  Every method here
    and in SpectralDecomposition applies these scalars to give the value at X,
    and raises DomainError where its scalar is not a finite normal double.
    """

    alpha: float
    lam: float
    grid: Grid1D
    # K0, the lambda = 0 form (K = K0 + lam * diag(hardy)): dense (n, n) below
    # alpha = 2; at alpha = 2 the (2, n) upper band array in LAPACK ab layout,
    # row 0 the off-diagonal after one padding entry, row 1 the diagonal
    stiffness: np.ndarray
    hardy: np.ndarray      # diagonal of the Hardy weight, weights * x^{-alpha}
    mass: np.ndarray       # lumped mass diagonal (= unit-grid weights)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """K u at unit scale, for u of shape (n,) or (n, k)."""
        if self.alpha != 2.0:
            v = self.stiffness @ u
            if self.lam != 0.0:
                v += _col(self.lam * self.hardy, u) * u
            return v
        diag, off = _bands(self.stiffness)
        diag, off = _col(diag + self.lam * self.hardy, u), _col(off, u)
        v = diag * u
        v[:-1] += off * u[1:]
        v[1:] += off * u[:-1]
        return v

    def form(self, u: np.ndarray) -> float:
        return _power(self, 1.0 - self.alpha) * float(u @ self.matvec(u))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Operator action in the mass inner product: M^{-1} K u."""
        return _power(self, -self.alpha) * (self.matvec(u) / _col(self.mass, u))

    def potential(self, u: np.ndarray) -> np.ndarray:
        """The Hardy term M^{-1} H u: apply(u) is the lam = 0 action plus lam times it."""
        return _power(self, -self.alpha) * (_col(self.hardy, u) * u / _col(self.mass, u))


def _col(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w, one entry per node or mode, shaped to act on each column of u."""
    return w if u.ndim == 1 else w[:, None]


def _norms(w: np.ndarray, u: np.ndarray) -> float | np.ndarray:
    """sqrt(sum_i w_i u_i^2) of u, a float, or of each column of u (n, k)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.sum(_col(w, u) * u * u, axis=0))
    return float(norms) if u.ndim == 1 else norms


def _bands(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal views of an alpha = 2 band stiffness."""
    return K[1], K[0, 1:]


def _couple(op: DiscreteOperator, lam: float) -> DiscreteOperator:
    """The lambda = 0 form op at coupling lam, sharing its arrays.  A lam * hardy
    that is not finite (so a lam that is not, as hardy > 0) is a DomainError."""
    with np.errstate(all="ignore"):
        _require_finite(op.alpha, lam, op.grid, lam * op.hardy)
    return replace(op, lam=lam)


def assemble_form(alpha: float, lam: float, grid: Grid1D) -> DiscreteOperator:
    """Assemble the discrete quadratic form for coupling lam.

    lam must be finite; below the sharp constant it is allowed (indefinite
    forms are useful optimality probes), and stored as a scalar beside the
    lambda = 0 stiffness, built in one fresh array at unit scale: at alpha = 2
    the (2, n) bands of the P1 form, at any N; below 2 a dense part plus three
    bands, so N > DENSE_SOLVER_CAP is rejected before any work.  A form or a
    lam * hardy that is not finite raises DomainError.
    """
    _check_alpha(alpha, include_two=True)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    if alpha != 2.0:
        _require_dense_size(grid)
    unit = build_grid(1.0, grid.N, grid.grading)
    n = len(unit.nodes)
    with np.errstate(all="ignore"):
        hardy = unit.weights * unit.nodes ** (-alpha)
        if alpha == 2.0:
            diag, off = _local_bands(unit)
            K = np.zeros((2, n))
            K[0, 1:] = off
            K[1] = diag
        else:
            K = _nonlocal_stiffness(alpha, unit)
            A = normalization_A(1, alpha)
            diag, off = _exterior_bands(unit, alpha)
            # exterior killing from (X, inf): A(1,-a)/a * (X - x)^{-a}, lumped
            kill = A / alpha * (unit.X - unit.nodes) ** (-alpha)
            diag, off = A * diag + unit.weights * kill, A * off
            i = np.arange(n - 1)
            K[np.diag_indices(n)] += diag
            K[i, i + 1] += off
            K[i + 1, i] += off
    _require_finite(alpha, lam, grid, K)
    return _couple(DiscreteOperator(alpha=alpha, lam=0.0, grid=grid, stiffness=K,
                                    hardy=hardy, mass=unit.weights), lam)


# ---------------------------------------------------------------------------
# Spectral calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Mass-orthonormal eigenpairs of the operator's unit-scale arrays;
    eigenvalues and the methods give them at its X (see DiscreteOperator)."""

    unit_eigenvalues: np.ndarray  # nondecreasing
    eigenvectors: np.ndarray      # columns, v^T M w = delta at unit scale
    operator: DiscreteOperator

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum at the grid's X."""
        return _power(self.operator, -self.operator.alpha) * self.unit_eigenvalues

    @property
    def unit_bounds(self) -> tuple[float, float]:
        """The least nonzero and the greatest |unit eigenvalue|."""
        mags = np.abs(self.unit_eigenvalues)
        return float(np.min(mags[mags > 0.0])), float(np.max(mags))

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        op = self.operator
        return _power(op, 0.5) * (self.eigenvectors.T @ (_col(op.mass, u) * u))

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        return _power(self.operator, -0.5) * (self.eigenvectors @ coeff)

    def residual(self) -> float:
        """max_k |K v_k - mu_k M v_k| / |K v_k| over the spectrum (X-free)."""
        KV = self.operator.matvec(self.eigenvectors)
        MV = self.operator.mass[:, None] * self.eigenvectors * self.unit_eigenvalues
        num = np.linalg.norm(KV - MV, axis=0)
        den = np.linalg.norm(KV, axis=0)
        den[den == 0.0] = 1.0
        return float(np.max(num / den))


@dataclass(frozen=True, eq=False)
class BandCalculus:
    """Functions of the alpha = 2 operator from tridiagonal solves.

    At unit scale M^{-1} K is M^{-1/2} B M^{1/2}, B = M^{-1/2} K M^{-1/2}
    the symmetric tridiagonal (diag, off).  coefficients takes nodal values
    u at the grid's X to c = X^{1/2} M^{1/2} u, in which the operator at X
    is X^{-2} B and the mass norm the Euclidean one; synthesize takes c
    back.  The rules are in the module docstring.
    """

    operator: DiscreteOperator
    diag: np.ndarray
    off: np.ndarray
    unit_bounds: tuple[float, float]  # mu_1 and mu_N of B, by bisection

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        op = self.operator
        return _power(op, 0.5) * (_col(np.sqrt(op.mass), u) * u)

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        op = self.operator
        return _power(op, -0.5) * (coeff / _col(np.sqrt(op.mass), coeff))

    def _solve(self, shift: complex, c: np.ndarray) -> np.ndarray:
        """(shift + B)^{-1} c: LDL^T (ptsv) for a real shift >= 0, where
        shift + B is positive definite, and LU (gtsv) for a complex one."""
        rhs = c.reshape(len(c), -1)
        if isinstance(shift, complex):
            *_, x, info = zgtsv(self.off, self.diag + shift, self.off, rhs)
        else:
            *_, x, info = dptsv(self.diag + shift, self.off, rhs)
        if info != 0:
            raise _indefinite(self.operator)
        return x.reshape(c.shape)

    def _riesz(self, gamma: float, c: np.ndarray) -> np.ndarray:
        """B^{-gamma} c for 0 < gamma < 1, by Balakrishnan's integral."""
        lo, hi = np.log(self.unit_bounds)
        h = _RIESZ_STEP
        ys = lo - _RIESZ_PAD + h * np.arange(math.ceil((hi - lo + 2.0 * _RIESZ_PAD) / h) + 1)
        acc = sum(math.exp((1.0 - gamma) * y) * self._solve(math.exp(y), c) for y in ys)
        # the nodes past either end, y_0 - j h and y_last + j h (j >= 1)
        acc += math.exp((1.0 - gamma) * ys[0]) / math.expm1((1.0 - gamma) * h) \
            * self._solve(0.0, c)
        acc += math.exp(-gamma * ys[-1]) / math.expm1(gamma * h) * c
        return (h * math.sin(math.pi * gamma) / math.pi) * acc

    def power(self, beta: float, c: np.ndarray) -> np.ndarray:
        """(X^{-2} B)^beta c, as B^{beta - k} (B^k c) with k = ceil(beta).  The
        scalar X^{-2 beta} may overflow to inf or underflow to 0, as a power
        of the spectrum does in SpectralDecomposition."""
        k = math.ceil(beta)
        rw = _col(np.sqrt(self.operator.mass), c)
        for _ in range(k):
            c = self.operator.matvec(c / rw) / rw
        for _ in range(-k):
            c = self._solve(0.0, c)
        if k != beta:
            c = self._riesz(k - beta, c)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return np.float64(self.operator.grid.X) ** (-2.0 * beta) * c

    def heat(self, t: float, c: np.ndarray) -> np.ndarray:
        """exp(-t X^{-2} B) c for t >= 0, on the parabolic contour."""
        if t == 0.0:
            return c.copy()
        t = t * _power(self.operator, -2.0)
        mu = self.unit_bounds[0]
        damp = math.exp(-t * mu)
        if damp == 0.0:
            return np.zeros_like(c)
        acc = sum((w / t) * self._solve(z / t - mu, c)
                  for z, w in zip(_HEAT_POLES, _HEAT_WEIGHTS))
        return damp * acc.real


def _scaled_bands(op: DiscreteOperator, rw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bands of R^{-1} K R^{-1} for the alpha = 2 form K of op, lam term
    included, and R = diag(rw), rw the square root of a diagonal weight.  A
    non-finite rw or band raises DomainError naming op's form."""
    diag, off = _bands(op.stiffness)
    with np.errstate(all="ignore"):
        bands = (diag + op.lam * op.hardy) / rw / rw, off / rw[:-1] / rw[1:]
    _require_finite(op.alpha, op.lam, op.grid, rw, *bands)
    return bands


def eigendecompose(op: DiscreteOperator) -> SpectralDecomposition:
    """Every eigenpair against the lumped mass below alpha = 2, for the
    spectral calculus, by dense eigh in place on the unit-scale form scaled by
    M^{-1/2}.  At alpha = 2 band_calculus gives the functions of the operator
    and lowest_eigenvalues its eigenvalues, so it raises DomainError.  The
    eigenvectors are dense, so N > DENSE_SOLVER_CAP is rejected before any
    work; a scaled form that is not finite, or a spectrum outside the normal
    doubles at the operator's X, raises DomainError."""
    if op.alpha == 2.0:
        raise DomainError("eigendecompose is the dense route below alpha = 2; at alpha = 2 "
                          "use band_calculus for functions of the operator and "
                          "lowest_eigenvalues for its eigenvalues")
    _require_dense_size(op.grid)
    rw = np.sqrt(op.mass)
    with np.errstate(all="ignore"):
        B = np.divide(op.stiffness.T, rw[:, None])
        B /= rw[None, :]
        np.fill_diagonal(B, (np.diagonal(op.stiffness) + op.lam * op.hardy) / rw / rw)
    _require_finite(op.alpha, op.lam, op.grid, B)
    vals, Y = eigh(B, overwrite_a=True, check_finite=False)
    Y /= rw[:, None]
    return dilate(SpectralDecomposition(unit_eigenvalues=vals, eigenvectors=Y, operator=op),
                  op.grid)


def band_calculus(op: DiscreteOperator) -> BandCalculus:
    """The alpha = 2 calculus of op: the bands of B = M^{-1/2} K M^{-1/2} at
    unit scale and its extreme eigenvalues, mu_1 by _lowest and mu_N by
    bisection, in O(N) memory.  N > DENSE_SOLVER_CAP is rejected as in
    eigendecompose, the bound of every grid the verify checks take.  Another
    alpha, an indefinite form, a scaled form that is not finite, or a spectrum
    outside the normal doubles at the operator's X, raises DomainError."""
    if op.alpha != 2.0:
        raise DomainError(f"band_calculus is the alpha = 2 route, got alpha={op.alpha!r}; "
                          f"below it use eigendecompose")
    _require_dense_size(op.grid)
    diag, off = _scaled_bands(op, np.sqrt(op.mass))
    mu_1 = _lowest(op, op.mass, 1)[0]
    n = diag.size
    mu_n = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(n - 1, n - 1))[0]
    return dilate(BandCalculus(operator=op, diag=diag, off=off,
                               unit_bounds=(float(mu_1), float(mu_n))), op.grid)


def dilate(dec: SpectralDecomposition | BandCalculus,
           grid: Grid1D) -> SpectralDecomposition | BandCalculus:
    """The calculus of the same form on grid, a dilate of dec's grid: only
    the grid is rebound, every array is shared.  Another N or g, or a
    spectrum at grid.X outside the normal double range (checked on
    dec.unit_bounds), is a DomainError."""
    op = dec.operator
    if (grid.N, grid.grading) != (op.grid.N, op.grid.grading):
        raise DomainError(f"cannot dilate a decomposition on N={op.grid.N}, "
                          f"g={op.grid.grading} to N={grid.N}, g={grid.grading}")
    with np.errstate(over="ignore", under="ignore"):
        lo, hi = np.float64(grid.X) ** -op.alpha * np.array(dec.unit_bounds)
    if not (np.isfinite(hi) and lo >= np.finfo(float).tiny):
        what = "underflows" if np.isfinite(hi) else "is not finite"
        raise DomainError(f"the spectrum of {_form_at(op.alpha, grid)} {what} "
                          f"in double precision")
    return replace(dec, operator=replace(op, grid=grid))


def heat_apply(dec: SpectralDecomposition | BandCalculus, t: float,
               u: np.ndarray) -> np.ndarray:
    """exp(-t L) u: on the contour at alpha = 2, through the eigenpairs below."""
    if t < 0.0:
        raise DomainError("heat_apply requires t >= 0")
    if isinstance(dec, BandCalculus):
        return dec.synthesize(dec.heat(t, dec.coefficients(u)))
    return dec.synthesize(_col(np.exp(-t * dec.eigenvalues), u) * dec.coefficients(u))


def power_apply(dec: SpectralDecomposition | BandCalculus, s: float,
                u: np.ndarray) -> np.ndarray:
    """L^{s/2} u; negative s gives the Riesz (inverse) powers."""
    if isinstance(dec, BandCalculus):
        return dec.synthesize(dec.power(0.5 * s, dec.coefficients(u)))
    with np.errstate(over="ignore", invalid="ignore"):
        image = _col(dec.eigenvalues ** (0.5 * s), u) * dec.coefficients(u)
    return dec.synthesize(image)


def sobolev_norm(dec: SpectralDecomposition | BandCalculus, s: float,
                 u: np.ndarray) -> float | np.ndarray:
    """|| L^{s/2} u || in the mass norm: the Euclidean norm of the power's
    coefficients at alpha = 2, via the spectral measure below."""
    if isinstance(dec, BandCalculus):
        image = dec.power(0.5 * s, dec.coefficients(u))
        return _norms(np.ones(len(image)), image)
    with np.errstate(over="ignore"):
        return _norms(dec.eigenvalues ** s, dec.coefficients(u))


def mass_norm(op: DiscreteOperator, u: np.ndarray) -> float | np.ndarray:
    return _power(op, 0.5) * _norms(op.mass, u)


def _indefinite(op: DiscreteOperator) -> DomainError:
    return DomainError(f"{_form_at(op.alpha, op.grid)} with lambda={op.lam!r} "
                       f"is not positive definite")


def _lowest(op: DiscreteOperator, weight: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues, ascending, of the unit-scale pencil
    (K, diag(weight)), K the form of op, whose stiffness is factored in place.
    At alpha = 2, bisection (LAPACK stebz) on the bands scaled by
    weight^{-1/2}, at any N, with a tiny tol for its relative stopping rule.
    Below, 1/mu for the k largest mu of R K^{-1} R, R = diag(weight)^{1/2}:
    Lanczos (ARPACK) from R, each step two triangular solves with U = chol(K),
    or at k = n, past ARPACK, dense eigh of C^T C, C = U^{-T} R.  R is scaled
    by 2^j, j = floor(log4 min_i K_ii / weight_i), exactly, lest ARPACK's
    convergence test turn absolute below eps^(2/3) (5e-5 off at lam = 1e100).
    On g = 2 mass pencils all routes are within 1.8e-11 relative of dense eigh;
    bisection keeps the graded modes MRRR loses.  An indefinite form raises DomainError."""
    rw = np.sqrt(weight)
    indefinite = _indefinite(op)
    if op.alpha == 2.0:
        vals = eigh_tridiagonal(*_scaled_bands(op, rw), eigvals_only=True, select="i",
                                select_range=(0, k - 1), tol=np.finfo(float).tiny)
        if vals[0] <= 0.0:
            raise indefinite
        return vals
    K = op.stiffness
    K[np.diag_indices(len(rw))] += op.lam * op.hardy
    with np.errstate(all="ignore"):
        least = float(np.min(np.diagonal(K) / weight))
    try:  # K is symmetric: its transpose is a Fortran view that LAPACK factors
        U, _ = cho_factor(K.T, overwrite_a=True, check_finite=False)
    except LinAlgError:
        raise indefinite from None
    j = math.floor(0.5 * math.log2(least))  # least > 0, as Cholesky succeeded
    rw *= 2.0 ** j
    if k == len(rw):
        C = solve_triangular(U, np.diag(rw), trans="T", check_finite=False)
        mu = eigh(C.T @ C, eigvals_only=True)
    else:
        def matvec(x: np.ndarray) -> np.ndarray:  # K^{-1} = U^{-1} U^{-T}
            y = solve_triangular(U, rw * x.ravel(), trans="T", check_finite=False)
            return rw * solve_triangular(U, y, overwrite_b=True, check_finite=False)
        mu = eigsh(LinearOperator(K.shape, dtype=float, matvec=matvec), k=k, which="LA",
                   v0=rw, tol=0, return_eigenvectors=False)
    with np.errstate(all="ignore"):
        return np.sort(4.0 ** j / mu)


def lowest_eigenvalues(alpha: float, lam: float, grid: Grid1D, count: int) -> np.ndarray:
    """The count lowest eigenvalues of assemble_form(alpha, lam, grid) against
    the mass at grid.X, by _lowest; a count outside the integers 1..N-1, an
    indefinite form or a value that is not finite raises DomainError."""
    if not (isinstance(count, (int, np.integer)) and 1 <= count <= grid.N - 1):
        raise DomainError(f"count must be an integer between 1 and N-1 = {grid.N - 1}, "
                          f"the number of eigenvalues, got {count!r}")
    op = assemble_form(alpha, lam, grid)
    vals = _power(op, -alpha) * _lowest(op, op.mass, count)
    if not np.isfinite(vals).all():
        raise DomainError(f"the spectrum of {_form_at(alpha, grid)} is not finite "
                          f"in double precision")
    return vals


def hardy_quotient_min(alpha: float, grid: Grid1D) -> float:
    """Smallest generalized eigenvalue of (Form_{lambda=0}, Hardy weight), by
    _lowest, |lambda_star(alpha)| in the limit; grid.X only names the form.  A
    non-finite minimum or an indefinite (so failed) assembly is a DomainError."""
    op = assemble_form(alpha, 0.0, grid)
    nu = float(_lowest(op, op.hardy, 1)[0])
    if not math.isfinite(nu):
        raise DomainError(f"the Hardy minimum of {_form_at(alpha, grid)} is not "
                          f"finite in double precision")
    return nu


def commutator_with_multiplier(op: DiscreteOperator, u: np.ndarray,
                               m: np.ndarray) -> float | np.ndarray:
    """Mass norm of [A, m] u for a multiplier m on the nodes, or per column of m (n, k).

    The Hardy term is diagonal and commutes exactly with m, so the lambda = 0
    form gives it at every lam: the term is left out, not added and cancelled.
    """
    free = replace(op, lam=0.0)
    v = free.matvec(m * _col(u, m)) - m * _col(free.matvec(u), m)
    return _power(op, 0.5 - op.alpha) * _norms(1.0 / op.mass, v)


def commutator_norm(op: DiscreteOperator, u: np.ndarray, r: float, R: float) -> float:
    """Mass norm of [A, chi*theta] u: chi cuts off at radius R..2R and theta
    at boundary distance r..2r, both with the standard derivative scaling.
    The grid must resolve r: its smallest cell below 2r, which on a graded
    mesh is the first one, X/N^g, must be at most r/2; the larger cells of
    the cutoff's layer are not checked."""
    grid = op.grid
    if not (0.0 < r <= 1.0 <= R < 0.5 * grid.X):
        raise DomainError(f"need 0 < r <= 1 <= R < X/2, got r={r!r}, R={R!r}")
    hmin_r = np.min(np.diff(grid.vertices[grid.vertices <= 2.0 * r]), initial=np.inf)
    if not np.isfinite(hmin_r) or hmin_r > 0.5 * r:
        raise DomainError(f"grid too coarse to resolve cutoff scale r={r!r}")
    return commutator_with_multiplier(op, u, cutoff_product(grid, r, R))


# ---------------------------------------------------------------------------
# Test-function families
# ---------------------------------------------------------------------------

def smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    a = np.exp(-1.0 / u[mid])
    b = np.exp(-1.0 / (1.0 - u[mid]))
    out[mid] = a / (a + b)
    return out


def taper(x: np.ndarray) -> np.ndarray:
    """Plateau envelope: 1 on (0, 1/2], smooth descent to 0 at 2."""
    return 1.0 - smoothstep((x - 0.5) / (2.0 - 0.5))


def boundary_bump(grid: Grid1D, eps: float, gamma_exp: float) -> np.ndarray:
    """min(x/eps, 1)^gamma times the plateau envelope, on grid nodes."""
    x = grid.nodes
    return np.minimum(x / eps, 1.0) ** gamma_exp * taper(x)


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def interior_bump(grid: Grid1D, center: float = 2.0, halfwidth: float = 1.5) -> np.ndarray:
    """Smooth bump around center, scaled >= 1 on the inner half of its support."""
    edge = min(0.25, (0.5 / halfwidth) ** 2)
    return _bump((grid.nodes - center) / halfwidth) / math.exp(1.0 - 1.0 / (1.0 - edge))


def singular_profile(grid: Grid1D, p_exp: float) -> np.ndarray:
    """x^p profile running to the grid floor, tapered to zero by 2."""
    return grid.nodes ** p_exp * taper(grid.nodes)


def decay_profile(grid: Grid1D, p_exp: float, alpha: float) -> np.ndarray:
    """Smooth profile saturating the class (1 ^ x)^p (1 ^ |x|^{-1-alpha})."""
    x = grid.nodes
    return x ** p_exp * (1.0 + x * x) ** (-0.5 * (1.0 + alpha + p_exp))


def boundary_cutoff(grid: Grid1D, r: float) -> np.ndarray:
    """theta(x; r): 0 below r, 1 above 2r, |theta'| ~ 1/r."""
    return smoothstep((grid.nodes - r) / r)


def radial_cutoff(grid: Grid1D, R: float) -> np.ndarray:
    """chi(x; R): 1 below R, 0 above 2R, |chi'| ~ 1/R."""
    return 1.0 - smoothstep((grid.nodes - R) / R)


def cutoff_product(grid: Grid1D, r: float, R: float) -> np.ndarray:
    """chi(x; R) * theta(x; r): 0 near the boundary and far out."""
    return boundary_cutoff(grid, r) * radial_cutoff(grid, R)
