"""The linear algebra of the 2D Newton matrix: a stencil on the interior
nodes of a box, numbered row-major, applied by shifted slices, written into
LAPACK's general band storage and factored by a float32 band LU.

A stencil is {offset: entries}, each entries array holding a leading member
axis and one axis per dimension over the interior nodes; the offsets have at
most two nonzero components, each -1, 0 or 1 (the 9-point stencil in 2D).
In row-major order offset o couples a node to the one sum_k o_k stride_k
after it, so the matrix has kl = ku = stride_0 + stride_1 sub- and
superdiagonals: nx - 1 in 2D.

As in LAPACK dsgesv, the solver refines float32 solves in float64 from the
first one (solver._defect_correction), down to the Newton step's target,
and, only where a fresh float32 factor cannot reach it, factors in float64
and takes that factor's direct solve; at 65^2 float32 factors and solves
take 0.7-0.8 of float64's time.
Rows divided by their diagonal and right-hand sides by their largest entry
keep any scale of the data within float32.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import DivergenceError


def _strides(shape: tuple) -> list:
    """Distance in the numbering between neighbours along each axis."""
    return [int(np.prod(shape[k + 1:])) for k in range(len(shape))]


def half_bandwidth(shape: tuple) -> int:
    """kl = ku of a stencil on interior nodes of this shape."""
    return sum(_strides(shape)[:2])


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


@functools.cache
def _shift_slices(offset: tuple) -> tuple:
    """(nodes, neighbours): over the interior, the nodes whose neighbour at
    offset is interior too, and those neighbours."""
    return (tuple(slice(max(-o, 0), -o if o > 0 else None) for o in offset),
            tuple(slice(max(o, 0), o if o < 0 else None) for o in offset))


def stencil_product(stencil: dict, row: int, x: np.ndarray) -> np.ndarray:
    """J x for member row of a stencil, x flat over the interior nodes: per
    offset its entries times x shifted by it, at the nodes whose neighbour
    there is interior."""
    centre = stencil[(0,) * len(next(iter(stencil)))][row]
    x = x.reshape(centre.shape)
    out = centre * x
    for off, entries in stencil.items():
        if any(off):
            node, neighbour = _shift_slices(off)
            out[node] += entries[row][node] * x[neighbour]
    return out.ravel()


def band_storage(stencil: dict, row: int, dtype=np.float32) -> np.ndarray:
    """Member row of a stencil, each row divided by its diagonal entry before
    the cast to dtype, in general band storage in Fortran order for gbtrf to
    factor in place: the entry of node i at offset o, whose
    neighbour is j = i + shift, sits at row 2 kl - shift (kl rows on top take
    the fill of row interchanges) and column j.  An entry whose neighbour
    leaves the interior is 0: along the later axes it would otherwise couple
    across a wrap of the numbering."""
    shape = next(iter(stencil.values())).shape[1:]
    strides, kl, size = _strides(shape), half_bandwidth(shape), int(np.prod(shape))
    diagonal = stencil[(0,) * len(shape)][row]
    ab = np.zeros((3 * kl + 1, size), dtype, order="F")
    for off, entries in stencil.items():
        values = entries[row] / diagonal
        for k, o in enumerate(off):
            if o:
                values[(slice(None),) * k + (-1 if o > 0 else 0,)] = 0.0
        shift = sum(o * stride for o, stride in zip(off, strides))
        lo, hi = max(shift, 0), size + min(shift, 0)
        ab[2 * kl - shift, lo:hi] = values.ravel()[lo - shift:hi - shift]
    return ab


class BandLU:
    """gbtrf's LU with partial pivoting of member row of a stencil in the
    band storage of dtype; a singular matrix raises DivergenceError.  solve,
    the one method defect correction reads, divides b by the rows' diagonal
    and by the largest entry of that, solves in dtype and scales back in
    float64.  Without row interchanges, the case for every Newton matrix
    seen, U keeps kl superdiagonals, and the factor keeps compact copies of
    the two triangles for one triangular band solve (tbsv) each: 2.4 times
    as fast as gbtrs at 65^2, which also reads the kl superdiagonals kept
    for the fill.  Otherwise it keeps gbtrf's storage for gbtrs."""

    def __init__(self, stencil: dict, row: int, dtype=np.float32):
        ab = band_storage(stencil, row, dtype)
        kl = self.kl = (len(ab) - 1) // 3
        self.dtype, self.diagonal = ab.dtype, stencil[(0,) * len(next(iter(stencil)))][row].ravel()
        gbtrf, self.gbtrs = scipy.linalg.lapack.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=dtype)
        self.tbsv = scipy.linalg.blas.get_blas_funcs("tbsv", dtype=dtype)
        lu, pivots, info = gbtrf(ab, kl, kl, overwrite_ab=1)
        if info != 0:
            raise DivergenceError(f"Newton matrix is singular ({gbtrf.__name__} info {info})")
        self.lu, self.pivots = lu, pivots
        if np.array_equal(pivots, np.arange(len(pivots))):
            self.lower, self.upper = lu[2 * kl:].copy(order="F"), lu[kl:2 * kl + 1].copy(order="F")
            self.lu = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        c = b / self.diagonal
        scale = np.abs(c).max() or 1.0
        c = (c / scale).astype(self.dtype, copy=False)
        if self.lu is None:
            c = self.tbsv(self.kl, self.lower, c, lower=1, diag=1, overwrite_x=1)
            c = self.tbsv(self.kl, self.upper, c, overwrite_x=1)
        else:
            c = self.gbtrs(self.lu, self.kl, self.kl, c, self.pivots, overwrite_b=1)[0]
        return np.multiply(c, scale, dtype=np.float64)
