"""Heisenberg group arithmetic and left-invariant horizontal calculus.

Points of the group live in R^n x R^n x R with coordinates (x, y, t) and
product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2 sum_i (y_i x'_i - x_i y'_i)),

inverse -(x, y, t), anisotropic dilations (l x, l y, l^2 t), homogeneous
gauge (|z|^4 + t^2)^(1/4) with z = (x, y), and left-invariant distance
dist(p, q) = gauge(q^-1 o p).

The horizontal frame is

    X_j = d/dx_j + 2 y_j d/dt,      Y_j = d/dy_j - 2 x_j d/dt,

ordered (X_1..X_n, Y_1..Y_n).  Horizontal second derivatives follow from
Euclidean second-order jets by the chain rule: with B the 2n x (2n+1)
frame-coefficient matrix at the base point and H the Euclidean Hessian,

    full horizontal Hessian  = B H B^T + 2 (du/dt) J,

where the entry at (row i, col j) is V_j V_i u and J is the block matrix
[[0, I], [-I, 0]].  Only the antisymmetric part 4 (du/dt) J depends on the
frame ordering; the symmetrized Hessian is B H B^T.

Flat coordinate layout used throughout: length 2n+1 vectors ordered
(x_1..x_n, y_1..y_n, t).  Array-level helpers broadcast over leading axes.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Jet2",
    "group_mul",
    "group_inv",
    "gauge",
    "dist",
    "dilate",
    "frame_t_coefficients",
    "frame_matrix",
    "j_matrix",
    "horizontal_gradient",
    "heis_hessian",
    "heis_hessian_sym",
    "mul_coords",
    "left_difference",
    "gauge_coords",
    "dist_coords",
]


@dataclass(frozen=True)
class Point:
    """A group element with first-layer coordinates x, y in R^n and center t."""

    x: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        t = float(self.t)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.isfinite(t)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)

    @property
    def n(self):
        return self.x.shape[0]

    def coords(self):
        """Flat coordinate vector (x_1..x_n, y_1..y_n, t)."""
        return np.concatenate([self.x, self.y, [self.t]])

    @classmethod
    def from_coords(cls, coords, n=None):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1 or coords.shape[0] % 2 != 1:
            raise ValueError("flat coordinates must be a 1-d vector of odd length")
        if n is None:
            n = (coords.shape[0] - 1) // 2
        if coords.shape[0] != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} coordinates, got {coords.shape[0]}")
        return cls(coords[:n], coords[n : 2 * n], coords[2 * n])


def _check_same_n(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: n={a.n} vs n={b.n}")


# -- array-level group operations (flat layout, broadcasting over leading axes)


def mul_coords(a, b, n):
    """Group product of flat coordinate arrays, broadcasting elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ax, ay, at = a[..., :n], a[..., n : 2 * n], a[..., 2 * n]
    bx, by, bt = b[..., :n], b[..., n : 2 * n], b[..., 2 * n]
    twist = 2.0 * np.sum(ay * bx - ax * by, axis=-1)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., :n] = ax + bx
    out[..., n : 2 * n] = ay + by
    out[..., 2 * n] = at + bt + twist
    return out


def left_difference(eta, xi, n):
    """Flat coordinates of eta^-1 o xi, broadcasting over leading axes.

    Expanding the product gives
    (x - x', y - y', t - t' + 2 sum_i (x'_i y_i - y'_i x_i))
    with (x, y, t) = xi and (x', y', t') = eta.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dx = xi[..., :n] - eta[..., :n]
    dy = xi[..., n : 2 * n] - eta[..., n : 2 * n]
    twist = 2.0 * np.sum(
        eta[..., :n] * xi[..., n : 2 * n] - eta[..., n : 2 * n] * xi[..., :n], axis=-1
    )
    out = np.empty(np.broadcast_shapes(xi.shape, eta.shape), dtype=float)
    out[..., :n] = dx
    out[..., n : 2 * n] = dy
    out[..., 2 * n] = xi[..., 2 * n] - eta[..., 2 * n] + twist
    return out


def gauge_coords(coords, n):
    """Homogeneous gauge (|z|^4 + t^2)^(1/4) of flat coordinate arrays."""
    coords = np.asarray(coords, dtype=float)
    z2 = np.sum(coords[..., : 2 * n] ** 2, axis=-1)
    return (z2 * z2 + coords[..., 2 * n] ** 2) ** 0.25


def dist_coords(a, b, n):
    """Gauge distance between flat coordinate arrays."""
    return gauge_coords(left_difference(b, a, n), n)


# -- Point-level wrappers


def group_mul(a, b):
    """Group product a o b."""
    _check_same_n(a, b)
    return Point.from_coords(mul_coords(a.coords(), b.coords(), a.n), a.n)


def group_inv(a):
    """Group inverse of a."""
    return Point.from_coords(-a.coords(), a.n)


def gauge(p):
    """Homogeneous gauge of p."""
    return float(gauge_coords(p.coords(), p.n))


def dist(a, b):
    """Left-invariant gauge distance gauge(b^-1 o a); symmetric in a, b."""
    _check_same_n(a, b)
    return float(dist_coords(a.coords(), b.coords(), a.n))


def dilate(lam, p):
    """Anisotropic dilation (lam x, lam y, lam^2 t)."""
    lam = float(lam)
    return Point(lam * p.x, lam * p.y, lam * lam * p.t)


# -- horizontal calculus from Euclidean second-order jets


@dataclass(frozen=True)
class Jet2:
    """Euclidean second-order jet (value, gradient, Hessian) in the flat layout.

    The Hessian is validated to be symmetric up to a relative tolerance and
    stored exactly symmetrized, so downstream linear algebra never sees an
    asymmetric matrix.
    """

    value: float
    egrad: np.ndarray
    ehess: np.ndarray
    sym_tol: float = 1e-12

    def __post_init__(self):
        value = float(self.value)
        g = np.asarray(self.egrad, dtype=float)
        h = np.asarray(self.ehess, dtype=float)
        if g.ndim != 1 or g.shape[0] % 2 != 1:
            raise ValueError("gradient must be a flat vector of odd length 2n+1")
        d = g.shape[0]
        if h.shape != (d, d):
            raise ValueError(f"Hessian must have shape ({d}, {d}), got {h.shape}")
        if not (np.isfinite(value) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ValueError("jet entries must be finite")
        scale = 1.0 + float(np.abs(h).max(initial=0.0))
        if float(np.abs(h - h.T).max(initial=0.0)) > self.sym_tol * scale:
            raise ValueError("Hessian asymmetry exceeds tolerance")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "egrad", g)
        object.__setattr__(self, "ehess", 0.5 * (h + h.T))

    @property
    def n(self):
        return (self.egrad.shape[0] - 1) // 2


def j_matrix(n):
    """Block matrix [[0, I_n], [-I_n, 0]] acting on horizontal vectors."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def frame_t_coefficients(coords, n):
    """The d/dt coefficients c = (2 y_1..2 y_n, -2 x_1..-2 x_n) of the frame.

    ``coords`` holds flat coordinates on its last axis (leading axes
    broadcast); the result has 2n entries on its last axis.  This is the
    last column of :func:`frame_matrix`.
    """
    coords = np.asarray(coords, dtype=float)
    return np.concatenate([2.0 * coords[..., n : 2 * n], -2.0 * coords[..., :n]], axis=-1)


def frame_matrix(at):
    """Coefficients of the horizontal frame in Euclidean coordinates at a point.

    Row i < n carries X_{i+1} = e_{x_{i+1}} + 2 y_{i+1} e_t and row n + i
    carries Y_{i+1} = e_{y_{i+1}} - 2 x_{i+1} e_t; shape (2n, 2n+1).
    """
    n = at.n
    B = np.zeros((2 * n, 2 * n + 1))
    B[:, : 2 * n] = np.eye(2 * n)
    B[:, 2 * n] = frame_t_coefficients(at.coords(), n)
    return B


def _check_jet_point(jet, at):
    if jet.n != at.n:
        raise ValueError(f"dimension mismatch: jet n={jet.n} vs point n={at.n}")


def horizontal_gradient(jet, at):
    """Frame derivatives (X_1 u .. X_n u, Y_1 u .. Y_n u) at the base point."""
    _check_jet_point(jet, at)
    return frame_matrix(at) @ jet.egrad


def heis_hessian(jet, at):
    """Full horizontal Hessian; entry (i, j) is V_j V_i u in frame order."""
    _check_jet_point(jet, at)
    B = frame_matrix(at)
    n = at.n
    return B @ jet.ehess @ B.T + 2.0 * jet.egrad[2 * n] * j_matrix(n)


def heis_hessian_sym(jet, at):
    """Symmetrized horizontal Hessian B H B^T (the frame-order-free part)."""
    _check_jet_point(jet, at)
    B = frame_matrix(at)
    return B @ jet.ehess @ B.T
