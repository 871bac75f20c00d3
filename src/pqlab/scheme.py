"""The discretization: every derivative of a grid field in pqlab is taken here,
by one of two rules.

The face rule.  _Scheme is the spatial discretization of one domain and
integrand: D_h places gradients on cell faces and div_h is its negative
adjoint, which makes discrete integration by parts exact for test functions
vanishing on the boundary.  evaluate gives the implicit step's residual
R(w) = w - u_prev - dt div_h F(x, t, D_h w), stencil its Jacobian and
cell_energy the integral of f(Du); a and b are sampled on the faces and at
the cell centres on first use.  The step and its Newton stencil
(solver._Stepper), the weak form (solver.weak_residual) and the gap
(solver.variational_gap_curves) use it.  The Jacobian is one stencil written
over the axes: per axis k the normal weight G + 2G'(s) g_k^2 of the k-faces
on the neighbours +-e_k and the diagonal, and per transverse axis j the
cross weight 2G'(s) g_k t_j, where the face flux takes its transverse
gradient t_j from centred differences averaged onto the face, on +-e_j and
+-e_k +- e_j.  In 1D one step is the minimizing movement of the convex
integrand, so the discrete variational inequality holds up to iteration
tolerance; the averaged transverse gradient makes the 2D step minimize no
discrete energy exactly, so in 2D it holds only up to a first-order error.

The nodal rule, which only the diagnostics read.  _partial differentiates
per node by np.gradient, central inside and second-order one-sided at the
boundary; _grad_norm gives |Du| per node.  gradient_powers is the one way a
diagnostic integrates |Du|^r of a field: the energy report, the Caccioppoli
check and the interpolation lemma read it.  The rule's other readers are the
energy report's datum terms (solver.energy_reports, |Dg0| on one level) and
the datum's dual norm (solver._dual_norm, a spatial norm of sine test modes).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .band import Stencil
from .grid import Domain, _integrate_power, _level_blocks, _node_integral, _stored_levels
from .model import IntegrandSpec, energy_density, flux_coefficient

# ---------------------------------------------------------------------------
# the face rule


class _Iterate(NamedTuple):
    """The residual at a stack of iterates w (one per member, leading
    axis), with the face quantities its Jacobian needs.

    Over the spatial axes the residual holds the interior nodes, and per axis
    k the face quantities the k-faces beside them (nx - 1 along k, nx - 2
    along every other axis): grads[k] is the normal difference quotient,
    trans[k] the list of transverse gradients averaged onto the faces (empty
    in 1D), coeffs[k] the pair (G, 2G') at s = grads[k]^2 + sum trans[k]^2.
    """

    w: np.ndarray
    residual: np.ndarray  # R at the interior nodes
    norm: np.ndarray  # max|R| per member
    scale: np.ndarray  # max(1, |w|_inf, dt |div_h F|_inf) per member
    grads: list
    trans: list
    coeffs: list
    flux: np.ndarray  # dt div_h F(D_h w) at the interior nodes, for restart

    def take(self, rows):
        """The same quantities for a subset of the members."""
        return _Iterate(
            self.w[rows], self.residual[rows], self.norm[rows], self.scale[rows],
            [g[rows] for g in self.grads],
            [[t[rows] for t in tk] for tk in self.trans],
            [(big_g[rows], dg[rows]) for big_g, dg in self.coeffs],
            self.flux[rows],
        )

    def restart(self):
        """evaluate(w, w, eps) bit for bit where w is finite inside."""
        r = 0.0 - self.flux  # w - w is +0.0 there; -flux would flip a zero's sign
        return self._replace(residual=r, norm=np.abs(r).reshape(len(r), -1).max(1))


class _Scheme:
    """The spatial discretization of one domain and integrand, which the
    stepper, the weak residual and the variational gap read.  Fields carry
    leading axes (members or time levels) before the n spatial ones.  a and b
    are sampled on the faces and at the cell centres on first use, so a
    caller pays only for the set it reads."""

    def __init__(self, domain: Domain, spec: IntegrandSpec):
        n = domain.n
        self.dom, self.spec, self.dt, self.dx = domain, spec, domain.dt, domain.dx
        self.spatial = tuple(range(-n, 0))
        inner, full = slice(1, -1), slice(None)

        def at(slots: dict, other=full) -> tuple:
            """The index over the last n axes: slots[j] on axis j, other elsewhere."""
            return (Ellipsis,) + tuple(slots.get(j, other) for j in range(n))

        self.interior = at({}, inner)
        # per axis k: the (east, west) neighbours along k, nodes of a k-face
        # or k-faces of a node; and the rows of the k-faces the residual
        # reads, inside along every other axis, of nodes or of k-faces
        self.near = [(at({k: slice(1, None)}), at({k: slice(None, -1)})) for k in range(n)]
        self.rows = [at({k: full}, inner) for k in range(n)]
        # Newton stencil geometry: per axis k the unit offset e_k; per
        # transverse pair (k, j), in the order of _Iterate.trans, the cross
        # factor dt/(4 h_k h_j) and the nodes j + 1 and j - 1 of the centred
        # j-difference on the rows of the k-faces
        self.units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        self.pairs = [
            (k, j, self.dt / (4.0 * self.dx[min(j, k)] * self.dx[max(j, k)]),
             tuple(at({k: full, j: s}, inner) for s in (slice(2, None), slice(None, -2))))
            for k in range(n) for j in range(n) if j != k
        ]

    @functools.cached_property
    def face_coeffs(self) -> list:
        """(a, b) per axis k on the k-faces the residual reads (see _Iterate)."""
        axes, coeffs = self.dom.axes, self.spec.coeffs
        faces = (np.meshgrid(*(0.5 * (ax[:-1] + ax[1:]) if j == k else ax[1:-1]
                               for j, ax in enumerate(axes)), indexing="ij")
                 for k in range(self.dom.n))
        return [(coeffs.a.at(*c), coeffs.b.at(*c)) for c in faces]

    @functools.cached_property
    def centre_coeffs(self) -> tuple:
        """(a, b) at the cell centres."""
        centres = np.meshgrid(*(0.5 * (ax[:-1] + ax[1:]) for ax in self.dom.axes), indexing="ij")
        return self.spec.coeffs.a.at(*centres), self.spec.coeffs.b.at(*centres)

    def face_gradients(self, w: np.ndarray) -> list:
        """D_h w: per axis k the difference quotients on the k-faces, of
        which there are nx - 1 along k and nx along every other axis."""
        grads = [w[east] - w[west] for east, west in self.near]
        for g, h in zip(grads, self.dx):
            g /= h
        return grads

    def face_average(self, v: np.ndarray, k: int) -> np.ndarray:
        """Mean of neighbouring node values along axis k, on the faces between."""
        east, west = self.near[k]
        mean = v[west] + v[east]
        mean *= 0.5
        return mean

    def face_divergence(self, fluxes: list) -> np.ndarray:
        """div_h F, the negative adjoint of face_gradients, at the interior
        nodes, from fluxes on the k-faces beside them (shapes in _Iterate).
        Satisfies sum(div F * phi) dV = -sum(F . D phi) dV exactly for phi
        vanishing on the boundary."""
        return sum((f[east] - f[west]) / h
                   for f, (east, west), h in zip(fluxes, self.near, self.dx))

    def evaluate(self, w: np.ndarray, u_prev: np.ndarray, eps: np.ndarray) -> _Iterate:
        """R(w) = w - u_prev - dt div_h F(D_h w) per member, eps the members'
        regularization broadcast over the spatial axes, evaluating the face
        coefficients once for both the residual and the Jacobian (shapes in
        _Iterate).  t_j is the mean over a k-face's two nodes of the centred
        difference (w[j + 1] - w[j - 1]) / 2h_j, np.gradient's inside."""
        grads = [(v[east] - v[west]) / h
                 for v, (east, west), h in zip((w[r] for r in self.rows), self.near, self.dx)]
        trans = [[] for _ in grads]
        for k, j, _, (ahead, behind) in self.pairs:
            trans[k].append(self.face_average((w[ahead] - w[behind]) / (2.0 * self.dx[j]), k))
        s = [g**2 for g in grads]
        for sk, tk in zip(s, trans):
            for t in tk:
                sk += t**2
        coeffs = [
            flux_coefficient(sk, a, b, self.spec, eps=eps, derivative=True)
            for sk, (a, b) in zip(s, self.face_coeffs)
        ]
        flux = self.dt * self.face_divergence([c[0] * g for c, g in zip(coeffs, grads)])
        residual = w[self.interior] - u_prev[self.interior] - flux
        scale = np.maximum(np.maximum(1.0, np.abs(w).max(axis=self.spatial)),
                           np.abs(flux).max(axis=self.spatial))
        return _Iterate(w, residual, np.abs(residual).max(axis=self.spatial), scale,
                        grads, trans, coeffs, flux)

    def stencil(self, it: _Iterate) -> Stencil:
        """dR/dw of every member as a stencil on the interior nodes:
        {offset: coefficient per member and node}, offset 0 the diagonal.

        The flux G(s) g on a k-face has derivative H dg + sum_j C_j dt_j with
        H = G + 2G' g^2 and C_j = 2G' g t_j, where t_j averages the centred
        j-difference over the face's two nodes.  H sits on the neighbours
        +-e_k and the diagonal; C_j reaches +-e_j and +-e_k +- e_j.  The
        order of accumulation fixes the rounding of every entry: the normal
        weights of all axes first, then the cross weights in axis order,
        east face before west.  band.Stencil lays them out for band.py.
        """
        diag = 1.0
        entries = {}
        for e, dx, (east, west), g, (big_g, dg) in zip(
                self.units, self.dx, self.near, it.grads, it.coeffs):
            c = self.dt / dx**2
            h = big_g + dg * g**2
            diag = diag + c * (h[east] + h[west])
            # one weight per face: the east and west entries are views of it,
            # so nothing below may add into them in place
            weight = -c * h
            entries[e], entries[tuple(-a for a in e)] = weight[east], weight[west]
        entries = Stencil({(0,) * self.dom.n: diag, **entries})
        # a k-face on side s of a node enters R with sign -s, and the
        # transverse difference pairs +e_j with +1 and -e_j with -1
        for (k, j, kappa, _), t in zip(self.pairs, itertools.chain.from_iterable(it.trans)):
            e_k, e_j = self.units[k], self.units[j]
            cross = kappa * it.coeffs[k][1] * it.grads[k] * t
            for side, face in zip((1, -1), self.near[k]):
                v = cross[face]
                for sign in (1, -1):
                    value = -v if side * sign > 0 else v
                    for off in (tuple(sign * b for b in e_j),
                                tuple(side * a + sign * b for a, b in zip(e_k, e_j))):
                        entries[off] = entries[off] + value if off in entries else value
        return entries

    def cell_energy(self, values: np.ndarray, eps: float) -> np.ndarray:
        """integral of f(x, Dw) at every time level of values (time first), by
        cell-centred staggered gradients, a block of levels at a time (see
        grid._BLOCK_BYTES).  A field constant in time may be stored as one
        read-only level broadcast over time (time stride 0, as comparison_maps
        stores a map without a time factor): its energy is taken on that level
        once and repeated.  The gradient components, their squares and their
        sum |xi|^2 are formed in place, and energy_density gives f.  In 1D
        this is the step's own energy, so the discrete variational inequality
        survives with the iteration tolerance; in 2D it does not (the strict
        xfail of TestVariationalGap::test_first_variation_vanishes)."""
        n = self.dom.n
        levels = _stored_levels(values)
        out = np.empty(len(levels))
        for block in _level_blocks(levels):
            for k, component in enumerate(self.face_gradients(levels[block])):
                for j in range(n):
                    if j != k:
                        component = self.face_average(component, j)
                component **= 2
                # |xi|^2, summed over the components in axis order
                if k:
                    s += component
                else:
                    s = component
            f_vals = energy_density(s, *self.centre_coeffs, self.spec, eps=eps)
            out[block] = f_vals.reshape(len(f_vals), -1).sum(axis=1)
        return np.broadcast_to(out, len(values)) * self.dom.cell_volume


# ---------------------------------------------------------------------------
# the nodal rule


def _partial(values: np.ndarray, domain: Domain, axis: int) -> np.ndarray:
    """d / d x_axis per node over the last n axes of values: central
    differences inside, second-order one-sided at the boundary."""
    return np.gradient(values, domain.dx[axis], axis=axis - domain.n, edge_order=2)


def _grad_norm(values: np.ndarray, domain: Domain) -> np.ndarray:
    """|D values| per node over the last n axes, a block of the leading
    levels at a time.  The squared components are added one axis at a time,
    so no stack of the gradient is held."""
    out = np.empty(values.shape)
    for block in _level_blocks(values):
        out[block] = np.sqrt(sum(_partial(values[block], domain, axis) ** 2
                                 for axis in range(domain.n)))
    return out


def gradient_powers(values: np.ndarray, domain: Domain, exponents, ball=None) -> list:
    """The integral of |D values|^r for every r in exponents, |D values|
    formed once: over the whole field by the space-time trapezoid rule, or,
    given a spatial mask ball, over its nodes at the levels of values by the
    node rule of cylinders."""
    mag = _grad_norm(values, domain)
    if ball is None:
        return [_integrate_power(mag, r, domain) for r in exponents]
    mag = mag[:, ball]
    return [_node_integral(mag, r, domain) for r in exponents]
