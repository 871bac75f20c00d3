"""The linear algebra of the 2D Newton matrix: a stencil on the interior
nodes of a box, numbered row-major, laid out in one buffer for its product
and LAPACK's general band storage, factored by a float32 band LU, and the
one owner of each member's Newton direction, FactorSlot.

A stencil is {offset: entries}, each entries array holding a leading member
axis and one axis per dimension over the interior nodes; the offsets have at
most two nonzero components, each -1, 0 or 1 (the 9-point stencil in 2D).
In row-major order offset o couples a node to the one sum_k o_k stride_k
after it, so the matrix has kl = ku = stride_0 + stride_1 sub- and
superdiagonals: nx - 1 in 2D.

A member's FactorSlot finds its direction, J x = b, down the ladder of LAPACK
dsgesv (Buttari, Dongarra, Langou et al., IJHPCA 2007): float32 solves
refined in float64 by defect correction from the first one, with the
product with J from the stencil, down to the caller's target.  It corrects
with its carried factor, from an earlier Newton iteration or time step,
while that factor's solves are within solve_budget (one factorization's
flops over one solve's: 8 at 17^2, 32 at 65^2); past it, or where that
correction gives up, with a fresh float32 factor; where that gives up too,
it takes a float64 factor's direct solve.  It releases a spent factor before
it makes the next.  At 65^2 float32 factors in half of float64's time
and solves in 0.6 of it; rows divided by their diagonal and right-hand
sides by their largest entry keep any scale of the data within float32.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import DivergenceError

# the corrections after its first solve that a defect correction may take
_CORRECTIONS = 30


def _strides(shape: tuple) -> list:
    """Distance in the numbering between neighbours along each axis."""
    return [int(np.prod(shape[k + 1:])) for k in range(len(shape))]


def solve_budget(kl: int) -> float:
    """Solves with a factor that cost the flops of one factorization.

    With kl = ku = k and no row interchanges (see BandLU), gbtrf eliminates
    each of the N columns with k divisions and a rank-one update of the
    k x k block beside the pivot, F = N (k + 2 k^2) flops, and a solve
    applies L and U with k multiply-adds per column each and one division,
    S = N (4 k + 1).  F / S = (k + 2 k^2) / (4 k + 1) is 8.1 at 17^2, 16.1 at
    33^2 and 32.1 at 65^2, in float32 as in float64.
    """
    return (kl + 2.0 * kl * kl) / (4.0 * kl + 1.0)


class Stencil(dict):
    """A stencil that lays its entries out once, on first use: rows."""

    @functools.cached_property
    def rows(self) -> tuple:
        """(shifts, rows) per offset, the centre first: the distance in the
        numbering to the neighbour there, and every member's entries in one
        buffer, 0 where it would couple across a wrap of the numbering."""
        offsets = sorted(self, key=any)  # the centre first
        rows = np.stack([self[off] for off in offsets])
        for off, entries in zip(offsets, rows):
            for axis, o in enumerate(off[1:], 2):
                if o:
                    entries[(slice(None),) * axis + (-1 if o > 0 else 0,)] = 0.0
        return ((np.array(offsets) @ _strides(rows.shape[2:])).tolist(),
                rows.reshape(rows.shape[:2] + (-1,)))


def stencil_product(stencil: dict, row: int, x: np.ndarray) -> np.ndarray:
    """J x for member row of a stencil, x flat over the interior nodes: the
    centre's entries times x, then per offset one contiguous multiply-add of
    its Stencil.rows and x shifted by it in a copy padded with zeros, which
    a neighbour past the first or last row reads."""
    shifts, rows = (stencil if isinstance(stencil, Stencil) else Stencil(stencil)).rows
    reach, size = max(map(abs, shifts)), len(x)
    padded = np.zeros(size + 2 * reach)
    padded[reach:reach + size] = x
    out, term = rows[0, row] * x, np.empty(size)
    for shift, entries in zip(shifts[1:], rows[1:, row]):
        out += np.multiply(entries, padded[reach + shift:reach + shift + size], out=term)
    return out


def band_storage(stencil: dict, row: int, dtype=np.float32) -> np.ndarray:
    """Member row of a stencil, each row divided by its diagonal entry before
    the cast to dtype, in general band storage in Fortran order for gbtrf to
    factor in place: the entry of node i at offset o, whose neighbour is
    j = i + shift, sits at row 2 kl - shift (kl rows on top take the fill of
    row interchanges) and column j, copied from Stencil.rows."""
    shifts, rows = (stencil if isinstance(stencil, Stencil) else Stencil(stencil)).rows
    kl, size, rows = max(map(abs, shifts)), rows.shape[2], rows[:, row]
    ab = np.zeros((3 * kl + 1, size), dtype, order="F")
    for shift, entries in zip(shifts, rows):
        lo, hi = max(shift, 0), size + min(shift, 0)
        ab[2 * kl - shift, lo:hi] = entries[lo - shift:hi - shift] / rows[0, lo - shift:hi - shift]
    return ab


class BandLU:
    """gbtrf's LU with partial pivoting of member row of a stencil in the
    band storage of dtype; a singular matrix raises DivergenceError.  solve
    counts its calls (solves), divides b by the rows' diagonal and by the
    largest entry of that, solves in dtype and scales back in float64.
    Without row interchanges, the case for every Newton matrix seen, U keeps
    kl superdiagonals, and the factor keeps compact copies of the two
    triangles for one triangular band solve (tbsv) each: 2.4 times as fast
    as gbtrs at 65^2, which also reads the kl superdiagonals kept for the
    fill.  Otherwise it keeps gbtrf's storage for gbtrs."""

    def __init__(self, stencil: dict, row: int, dtype=np.float32):
        ab = band_storage(stencil, row, dtype)
        kl = self.kl = (len(ab) - 1) // 3
        self.dtype, self.diagonal = ab.dtype, stencil[(0,) * len(next(iter(stencil)))][row].ravel()
        gbtrf, self.gbtrs = scipy.linalg.lapack.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=dtype)
        self.tbsv = scipy.linalg.blas.get_blas_funcs("tbsv", dtype=dtype)
        self.solves = 0
        lu, pivots, info = gbtrf(ab, kl, kl, overwrite_ab=1)
        if info != 0:
            raise DivergenceError(f"Newton matrix is singular ({gbtrf.__name__} info {info})")
        self.lu, self.pivots = lu, pivots
        if np.array_equal(pivots, np.arange(len(pivots))):
            self.lower, self.upper = lu[2 * kl:].copy(order="F"), lu[kl:2 * kl + 1].copy(order="F")
            self.lu = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        self.solves += 1
        c = b / self.diagonal
        scale = np.abs(c).max() or 1.0
        c = (c / scale).astype(self.dtype, copy=False)
        if self.lu is None:
            c = self.tbsv(self.kl, self.lower, c, lower=1, diag=1, overwrite_x=1)
            c = self.tbsv(self.kl, self.upper, c, overwrite_x=1)
        else:
            c = self.gbtrs(self.lu, self.kl, self.kl, c, self.pivots, overwrite_b=1)[0]
        return np.multiply(c, scale, dtype=np.float64)


def defect_correction(apply, b, lu, target):
    """Solve A x = b by x += lu.solve(b - A x) from x = lu.solve(b), apply
    the product x -> A x and lu a factor of A in lower precision or of a
    nearby matrix, until the defect |b - A x| (2-norm, by BLAS dnrm2, which
    no float64 b overflows) is at most target.

    Returns x, or None unless the defect falls at every correction (at a
    non-finite x it is NaN or infinite and never does) and, at the last
    correction's rate, can still reach the target within _CORRECTIONS.  A
    higher target stops no later and gives up nowhere that a lower one would
    have converged."""
    x, last = lu.solve(b), np.inf
    for solves in range(1, _CORRECTIONS + 2):
        defect = b - apply(x)
        norm = scipy.linalg.blas.dnrm2(defect)
        if norm <= target:
            return x
        if not norm < last or norm * (norm / last) ** (_CORRECTIONS - solves + 1) > target:
            return None
        x, last = x + lu.solve(defect), norm


class FactorSlot:
    """One member's band factor, lu: None until its first direction, then
    the last factor made, kept across Newton iterations and time steps."""

    lu = None

    def direction(self, stencil: dict, row: int, b: np.ndarray, target: float) -> np.ndarray:
        """x with J x = b, J member row of stencil, by the ladder of the module
        docstring; a singular J raises DivergenceError and empties the slot."""
        apply, x = functools.partial(stencil_product, stencil, row), None
        if self.lu is not None and self.lu.solves <= solve_budget(self.lu.kl):
            x = defect_correction(apply, b, self.lu, target)
        if x is None:
            self.lu = None  # release a spent or failed factor before refactoring
            self.lu = BandLU(stencil, row)
            x = defect_correction(apply, b, self.lu, target)
        if x is None:  # float32 cannot correct: float64's direct solve
            self.lu = None
            self.lu = BandLU(stencil, row, np.float64)
            x = self.lu.solve(b)
        return x
