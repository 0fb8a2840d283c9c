"""Scalar fields: parsed analytic expressions with exact jets, and grid samples.

Analytic fields are built from a small expression language over the group
coordinates::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are the coordinate variables ``x1..xn``, ``y1..yn``, ``t`` (plus
any declared extra variables such as ``s`` for solution-dependent
coefficients) and the functions ``exp``, ``log``, ``min``, ``max``.  There is
no implicit multiplication and no named constants.

Values and first/second derivatives are propagated through the syntax tree in
forward mode, over a whole batch of points in one walk, so jets are exact up
to rounding: no finite differences are involved on the analytic side.
``min``/``max`` evaluate everywhere but have no jet on their kink set;
requesting one there raises :class:`NonSmoothError`.

Grid fields store samples of a scalar on a uniform lattice over a coordinate
box, together with an optional mask of nodes where discrete jets would be
polluted by a kink.  Discrete jets are plain second-order central differences
at the native grid spacing.
"""

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "EvaluationDomainError",
    "NonSmoothError",
    "AnalyticField",
    "GridField",
    "Domain",
    "coordinate_names",
    "parse_field",
    "sample",
    "central_differences",
    "boundary_ring",
    "exp_of",
    "log_of",
    "z_norm_sq",
]

KINK_TOL = 1e-12


class ParseError(ValueError):
    """Syntax or name error in an expression, with a 1-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationDomainError(ValueError):
    """Evaluation left the domain of a primitive (log of nonpositive, etc.)."""


class NonSmoothError(ValueError):
    """A jet was requested at (or next to) a kink of min/max."""


# -- expression nodes -------------------------------------------------------
#
# Each node evaluates under an environment mapping variable names to scalars
# or broadcastable arrays.  ``jets`` propagates (value, gradient, Hessian)
# over a batch of points in one tree walk: ``axes`` maps each coordinate
# name to its axis and ``shape`` is the batch shape, and a jet comes back as
# arrays of shapes ``shape``, (d,) + ``shape`` and (d, d) + ``shape``,
# entry axes first.  Other variables (extras such as ``s``) are held fixed.


def _outer(g, h):
    """Outer product of two gradient stacks, point by point."""
    return g[:, None] * h[None, :]


@dataclass(frozen=True)
class Node:
    def __add__(self, other):
        return Add(self, _as_node(other))

    def __radd__(self, other):
        return Add(_as_node(other), self)

    def __sub__(self, other):
        return Sub(self, _as_node(other))

    def __rsub__(self, other):
        return Sub(_as_node(other), self)

    def __mul__(self, other):
        return Mul(self, _as_node(other))

    def __rmul__(self, other):
        return Mul(_as_node(other), self)

    def __truediv__(self, other):
        return Div(self, _as_node(other))

    def __rtruediv__(self, other):
        return Div(_as_node(other), self)

    def __pow__(self, other):
        other = _as_node(other)
        if not isinstance(other, Const):
            return exp_of(other * log_of(self))
        return Pow(self, other.value)

    def __neg__(self):
        return Neg(self)


def _as_node(v):
    if isinstance(v, Node):
        return v
    return Const(float(v))


@dataclass(frozen=True)
class Const(Node):
    value: float

    def evaluate(self, env):
        return self.value

    def jets(self, env, axes, shape):
        d = len(axes)
        return np.full(shape, self.value), np.zeros((d,) + shape), np.zeros((d, d) + shape)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def evaluate(self, env):
        return env[self.name]

    def jets(self, env, axes, shape):
        d = len(axes)
        g = np.zeros((d,) + shape)
        if self.name in axes:
            g[axes[self.name]] = 1.0
        # a broadcasting copy; np.broadcast_to costs ten times as much on a batch of one
        v = np.empty(shape)
        v[...] = env[self.name]
        return v, g, np.zeros((d, d) + shape)


@dataclass(frozen=True)
class _Binary(Node):
    a: Node
    b: Node


class Add(_Binary):
    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def jets(self, env, axes, shape):
        va, ga, ha = self.a.jets(env, axes, shape)
        vb, gb, hb = self.b.jets(env, axes, shape)
        return va + vb, ga + gb, ha + hb


class Sub(_Binary):
    def evaluate(self, env):
        return self.a.evaluate(env) - self.b.evaluate(env)

    def jets(self, env, axes, shape):
        va, ga, ha = self.a.jets(env, axes, shape)
        vb, gb, hb = self.b.jets(env, axes, shape)
        return va - vb, ga - gb, ha - hb


class Mul(_Binary):
    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def jets(self, env, axes, shape):
        va, ga, ha = self.a.jets(env, axes, shape)
        vb, gb, hb = self.b.jets(env, axes, shape)
        cross = _outer(ga, gb)
        return va * vb, va * gb + vb * ga, va * hb + vb * ha + cross + cross.swapaxes(0, 1)


class Div(_Binary):
    def evaluate(self, env):
        num = self.a.evaluate(env)
        den = self.b.evaluate(env)
        if np.any(den == 0.0):
            raise EvaluationDomainError("division by zero")
        return num / den

    def jets(self, env, axes, shape):
        va, ga, ha = self.a.jets(env, axes, shape)
        vb, gb, hb = self.b.jets(env, axes, shape)
        if np.any(vb == 0.0):
            raise EvaluationDomainError("division by zero")
        v = va / vb
        g = (ga - v * gb) / vb
        cross = _outer(g, gb)
        return v, g, (ha - v * hb - cross - cross.swapaxes(0, 1)) / vb


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: float

    def evaluate(self, env):
        a = np.asarray(self.base.evaluate(env))
        c = self.exponent
        if float(c).is_integer():
            if c < 0 and np.any(a == 0.0):
                raise EvaluationDomainError("zero raised to a negative power")
        else:
            if np.any(a < 0.0) or (c < 0 and np.any(a == 0.0)):
                raise EvaluationDomainError("fractional power of a negative base")
        out = np.power(a, c)
        return out if out.ndim else float(out)

    def jets(self, env, axes, shape):
        va, ga, ha = self.base.jets(env, axes, shape)
        c = self.exponent
        if c == 0.0:
            return np.ones(shape), np.zeros_like(ga), np.zeros_like(ha)
        if c < 2 and c != 1.0 and np.any(va == 0.0):
            raise EvaluationDomainError("power jet undefined at zero base")
        if not float(c).is_integer() and np.any(va < 0.0):
            raise EvaluationDomainError("fractional power of a negative base")
        d1 = c * np.power(va, c - 1)
        d2 = c * (c - 1) * np.power(va, c - 2) if c != 1.0 else 0.0
        return np.power(va, c), d1 * ga, d1 * ha + d2 * _outer(ga, ga)


@dataclass(frozen=True)
class Neg(Node):
    a: Node

    def evaluate(self, env):
        return -self.a.evaluate(env)

    def jets(self, env, axes, shape):
        v, g, h = self.a.jets(env, axes, shape)
        return -v, -g, -h


@dataclass(frozen=True)
class Exp(Node):
    a: Node

    def evaluate(self, env):
        return np.exp(self.a.evaluate(env))

    def jets(self, env, axes, shape):
        v, g, h = self.a.jets(env, axes, shape)
        ev = np.exp(v)
        return ev, ev * g, ev * (h + _outer(g, g))


@dataclass(frozen=True)
class Log(Node):
    a: Node

    def evaluate(self, env):
        v = self.a.evaluate(env)
        if np.any(np.asarray(v) <= 0.0):
            raise EvaluationDomainError("log of a nonpositive value")
        return np.log(v)

    def jets(self, env, axes, shape):
        v, g, h = self.a.jets(env, axes, shape)
        if np.any(v <= 0.0):
            raise EvaluationDomainError("log of a nonpositive value")
        gg = g / v
        return np.log(v), gg, h / v - _outer(gg, gg)


class _MinMax(_Binary):
    op = None
    pick_first_when_positive = None  # sign of (a - b) that selects branch a

    def evaluate(self, env):
        return self.op(self.a.evaluate(env), self.b.evaluate(env))

    def jets(self, env, axes, shape):
        ja = self.a.jets(env, axes, shape)
        jb = self.b.jets(env, axes, shape)
        gap = ja[0] - jb[0]
        if np.any(np.abs(gap) <= KINK_TOL * (1.0 + np.abs(ja[0]) + np.abs(jb[0]))):
            raise NonSmoothError(f"{self.name}: jet requested on the kink set")
        first = (gap > 0) == self.pick_first_when_positive
        return tuple(np.where(first, x, y) for x, y in zip(ja, jb))


class Min(_MinMax):
    name = "min"
    op = staticmethod(np.minimum)
    pick_first_when_positive = False


class Max(_MinMax):
    name = "max"
    op = staticmethod(np.maximum)
    pick_first_when_positive = True


def exp_of(a):
    return Exp(_as_node(a))


def log_of(a):
    return Log(_as_node(a))


def z_norm_sq(n):
    """Expression for |z|^2 = sum_i x_i^2 + y_i^2."""
    out = Const(0.0)
    for i in range(1, n + 1):
        out = out + Var(f"x{i}") ** 2 + Var(f"y{i}") ** 2
    return out


# -- parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"exp": (Exp, 1), "log": (Log, 1), "min": (Min, 2), "max": (Max, 2)}


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.names = names
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.tokens.append(("end", "", len(text) + 1))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return inner if value == "+" else Neg(inner)
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.factor()
            if isinstance(exponent, Const):
                return Pow(base, exponent.value)
            if isinstance(exponent, Neg) and isinstance(exponent.a, Const):
                return Pow(base, -exponent.a.value)
            # non-constant exponent: rewrite through exp/log
            return Exp(Mul(exponent, Log(base)))
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return Const(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                cls, arity = _FUNCTIONS[value]
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{value} takes {arity} argument(s), got {len(args)}", pos
                    )
                return cls(*args)
            if value not in self.names:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"expected an operand, got {shown!r}", pos)


def coordinate_names(n):
    """The coordinate names x1..xn, y1..yn, t in the flat layout's order."""
    return tuple(f"{a}{i}" for a in "xy" for i in range(1, n + 1)) + ("t",)


@dataclass(frozen=True)
class AnalyticField:
    """An expression over the coordinates x1..xn, y1..yn, t (plus extras).

    Wraps a syntax tree together with the ambient dimension; evaluation
    broadcasts over arrays, and jets are exact forward mode over a batch of
    points.
    """

    root: Node
    n: int
    extra_vars: tuple = ()

    @property
    def names(self):
        return coordinate_names(self.n) + self.extra_vars

    def _env_from_coords(self, coords, extra):
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != 2 * self.n + 1:
            raise ValueError(
                f"expected {2 * self.n + 1} coordinates, got {coords.shape[-1]}"
            )
        env = {}
        for a, name in enumerate(self.names[: 2 * self.n + 1]):
            env[name] = coords[..., a]
        for name in self.extra_vars:
            if name not in extra:
                raise ValueError(f"missing value for extra variable {name!r}")
            env[name] = extra[name]
        return env

    def __call__(self, at, **extra):
        # an overflow gives inf (or NaN), which the callers refuse by name
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.root.evaluate(self._env_from_coords(at, extra))
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def jets(self, points, **extra):
        """Exact value, gradient and Hessian in the 2n+1 coordinates.

        ``points`` has shape S + (2n+1,); the jet comes back as arrays of
        shapes S, (2n+1,) + S and (2n+1, 2n+1) + S, entry axes first as the
        grid operator holds its derivatives.  A kink, zero divisor or
        domain error at any point raises, as evaluation does.
        """
        env = self._env_from_coords(points, extra)
        axes = {name: a for a, name in enumerate(self.names[: 2 * self.n + 1])}
        return self.root.jets(env, axes, np.shape(points)[:-1])


def parse_field(text, n, extra_vars=()):
    """Parse an expression into an AnalyticField; see the module grammar."""
    extra_vars = tuple(extra_vars)
    return AnalyticField(_Parser(text, set(coordinate_names(n) + extra_vars)).parse(), n,
                         extra_vars)


def parse_expr(text, names):
    """Parse an expression over an arbitrary variable set into a syntax tree.

    Same grammar as :func:`parse_field`; used for expressions that do not
    live over the group coordinates (e.g. functions of eigenvalues).
    """
    return _Parser(text, set(names)).parse()


# -- grids ------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A closed coordinate box [lo_1, hi_1] x ... x [lo_{2n+1}, hi_{2n+1}]."""

    box: np.ndarray

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] % 2 != 1 or len(box) < 3:
            raise ValueError("box must have shape (2n+1, 2) with n >= 1")
        if not np.all(np.isfinite(box)):
            raise ValueError("box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("box must satisfy lo < hi on every axis")
        object.__setattr__(self, "box", box)

    @property
    def n(self):
        return (self.box.shape[0] - 1) // 2

    def sample_points(self, gen, count):
        """Uniform coordinate samples, shape (count, 2n+1)."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + (hi - lo) * gen.random((count, self.box.shape[0]))


@dataclass
class GridField:
    """Samples of a scalar on a uniform lattice over a coordinate box.

    ``values`` has one axis per coordinate in the flat layout; ``jet_invalid``
    optionally marks nodes whose discrete jets straddle a kink.
    """

    n: int
    box: np.ndarray
    values: np.ndarray
    jet_invalid: np.ndarray = None

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        d = 2 * self.n + 1
        if self.box.shape != (d, 2):
            raise ValueError(f"box must have shape ({d}, 2)")
        Domain(self.box)  # the one box rule: finite bounds, lo < hi
        if self.values.ndim != d:
            raise ValueError(f"values must have {d} axes, got {self.values.ndim}")
        if any(r < 2 for r in self.values.shape):
            raise ValueError("each axis needs at least 2 nodes")
        if self.jet_invalid is not None:
            self.jet_invalid = np.asarray(self.jet_invalid, dtype=bool)
            if self.jet_invalid.shape != self.values.shape:
                raise ValueError("jet_invalid mask must match the value shape")

    @property
    def res(self):
        return self.values.shape

    @property
    def spacing(self):
        return (self.box[:, 1] - self.box[:, 0]) / (np.array(self.res) - 1)

    def axes(self):
        return [
            np.linspace(self.box[a, 0], self.box[a, 1], r)
            for a, r in enumerate(self.res)
        ]

    def coords_full(self):
        """Full coordinate tensor of shape res + (2n+1,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_mask(self):
        return boundary_ring(self.res)

    def copy(self):
        mask = None if self.jet_invalid is None else self.jet_invalid.copy()
        return GridField(self.n, self.box.copy(), self.values.copy(), mask)


def boundary_ring(shape):
    """Boolean array of ``shape``, True on the first and last slice of every axis."""
    mask = np.zeros(shape, dtype=bool)
    for a in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[a] = 0
        mask[tuple(sl)] = True
        sl[a] = -1
        mask[tuple(sl)] = True
    return mask


def _kink_mask(root, env, shape):
    """Nodes within one cell of a min/max branch switch, or on a tie."""
    mask = np.zeros(shape, dtype=bool)

    def walk(node):
        if isinstance(node, _MinMax):
            a = np.broadcast_to(np.asarray(node.a.evaluate(env), dtype=float), shape)
            b = np.broadcast_to(np.asarray(node.b.evaluate(env), dtype=float), shape)
            gap = a - b
            tie = np.abs(gap) <= KINK_TOL * (1.0 + np.abs(a) + np.abs(b))
            mask[tie] = True
            sgn = gap > 0
            for axis in range(len(shape)):
                flip = np.diff(sgn, axis=axis) != 0
                lead = [slice(None)] * len(shape)
                lag = [slice(None)] * len(shape)
                lead[axis] = slice(0, -1)
                lag[axis] = slice(1, None)
                mask[tuple(lead)] |= flip
                mask[tuple(lag)] |= flip
        for child in ("a", "b", "base"):
            sub = getattr(node, child, None)
            if isinstance(sub, Node):
                walk(sub)

    walk(root)
    return mask if mask.any() else None


def sample(f, domain, res, **extra):
    """Evaluate an analytic field on a uniform lattice over the domain box.

    ``res`` is an int (same node count on every axis) or a per-axis tuple.
    When the expression contains min/max, nodes within one cell of a branch
    switch are flagged in ``jet_invalid``.
    """
    if f.n != domain.n:
        raise ValueError(f"dimension mismatch: field n={f.n} vs domain n={domain.n}")
    d = 2 * f.n + 1
    if np.isscalar(res):
        res = (int(res),) * d
    res = tuple(int(r) for r in res)
    if len(res) != d or any(r < 2 for r in res):
        raise ValueError(f"res must give at least 2 nodes on each of {d} axes")
    axes = [np.linspace(domain.box[a, 0], domain.box[a, 1], r) for a, r in enumerate(res)]
    # sparse axes broadcast to the full lattice only where the expression
    # combines them, so no full-size coordinate copies are made
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    env = {name: mesh[a] for a, name in enumerate(f.names[:d])}
    for name in f.extra_vars:
        if name not in extra:
            raise ValueError(f"missing value for extra variable {name!r}")
        env[name] = extra[name]
    # an overflow gives inf (or NaN), which the callers refuse by name
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.broadcast_to(np.asarray(f.root.evaluate(env), dtype=float), res).copy()
        mask = _kink_mask(f.root, env, res)
    return GridField(f.n, domain.box.copy(), values, mask)


def central_differences(values, spacing, gradient=False):
    """Second-order central differences on the interior block of a lattice.

    ``values`` has one axis per coordinate and ``spacing`` the step of each.
    Returns ``(H, g)``: ``H[a][b]`` is the second derivative in axes a and b
    (the same array object as ``H[b][a]``) and ``g[a]`` the first
    derivative, or ``g`` is None unless ``gradient`` is set.  Every array
    covers the nodes with index 1..r-2 on each axis, so a lattice with only
    two nodes on some axis gives empty arrays.
    """
    d = values.ndim
    # the windows of each axis shifted by -1, 0 and +1 against the interior
    win = [(slice(0, r - 2), slice(1, r - 1), slice(2, r)) for r in values.shape]
    centre = [w[1] for w in win]

    def shifted(*moves):
        idx = centre.copy()
        for a, o in moves:
            idx[a] = win[a][1 + o]
        return values[tuple(idx)]

    two_mid = 2.0 * shifted()
    H = [[None] * d for _ in range(d)]
    for a in range(d):
        H[a][a] = (shifted((a, 1)) - two_mid + shifted((a, -1))) / spacing[a] ** 2
        for b in range(a + 1, d):
            H[a][b] = H[b][a] = (
                shifted((a, 1), (b, 1))
                - shifted((a, 1), (b, -1))
                - shifted((a, -1), (b, 1))
                + shifted((a, -1), (b, -1))
            ) / (4.0 * spacing[a] * spacing[b])
    if not gradient:
        return H, None
    g = [(shifted((a, 1)) - shifted((a, -1))) / (2.0 * spacing[a]) for a in range(d)]
    return H, g
