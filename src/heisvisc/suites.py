"""Packaged verification suites behind the command-line `check` command.

Each suite bundles the module-level property checks into seeded, sampled
batches and returns a report that serializes to deterministic JSON: the
only inputs are (seed, count), every random draw comes from the counter
generator in :mod:`heisvisc.rng`, and no timing or host information is
recorded, so identical arguments give byte-identical reports.

Suites: core (group and gauge algebra), calculus (frame Hessian structure,
gauge-harmonic trace, conformal change of variables), cones (admissible-set
axioms plus the deliberate non-cone), envelopes (fixture property checks),
structural (coefficient growth/sign gate plus the violating coefficient),
lemma35 (perturbation margin certificates, both directions), keylemma
(envelope-shift certificate).  ``run_suite("all", ...)`` chains them.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .comparison import largest_couplings, margin_pencil
from .cones import ConeSpec, check_axioms, shifted_trace_spec
from .core import dilate, dist, frame_t_coefficients, gauge, group_inv, group_mul, j_matrix
from .envelopes import (
    check_monotone_convergence,
    check_semiconvexity,
    check_witness_bound,
    lower_envelope,
    upper_envelope,
)
from .fields import (Add, AnalyticField, Const, Domain, GridField, Mul, Node, exp_of, log_of,
                     parse_field, sample, z_norm_sq)
from .gridio import json_text
from .operators import (
    OperatorSpec,
    check_structural,
    conformal_operator_spec,
    contract,
    eval_A_psi,
    eval_A_u,
    eval_F,
)
from .rng import check_seed, stream
from .viscosity import key_lemma_certificate

__all__ = ["CheckOutcome", "SuiteReport", "SUITE_NAMES", "envelope_fixtures", "run_suite",
           "report_json"]

_BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


@dataclass
class CheckOutcome:
    """Result of one named check inside a suite."""

    name: str
    passed: bool
    checked: int
    error: float | None = None
    tol: float | None = None
    detail: dict | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "checked": int(self.checked),
            "error": None if self.error is None else float(self.error),
            "tol": None if self.tol is None else float(self.tol),
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    passed: bool
    checks: list = field(default_factory=list)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": int(self.seed),
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in self.checks],
        }


def _outcome(name, checked, error, tol, detail=None):
    return CheckOutcome(
        name=name, passed=bool(error <= tol), checked=checked,
        error=float(error), tol=float(tol), detail=detail,
    )


def _random_points(gen, n, count, half=2.0):
    return gen.uniform(-half, half, size=(count, 2 * n + 1))


# ---------------------------------------------------------------------------
# core: group and gauge algebra


def suite_core(seed, count=2000):
    checks = []
    per_n = {1: count - count // 2, 2: count // 2}

    def worst_over_n(stream_id, error):
        # one array call per n; ``error`` draws its samples, then returns
        # the per-sample errors
        gen = stream(seed, stream_id=stream_id)
        return max(float(error(gen, n, cnt).max(initial=0.0)) for n, cnt in per_n.items())

    def associative(gen, n, cnt):
        a, b, c = (_random_points(gen, n, cnt) for _ in range(3))
        return np.abs(group_mul(group_mul(a, b), c) - group_mul(a, group_mul(b, c)))

    def inverse(gen, n, cnt):
        p = _random_points(gen, n, cnt)
        return np.abs(np.concatenate([group_mul(group_inv(p), p), group_mul(p, group_inv(p))]))

    def homogeneous(gen, n, cnt):
        p = _random_points(gen, n, cnt)
        lam = gen.uniform(0.1, 4.0, size=cnt)
        scaled = lam * gauge(p)
        return np.abs(gauge(dilate(lam, p)) - scaled) / np.maximum(1.0, scaled)

    def left_invariant(gen, n, cnt):
        a, b, z = (_random_points(gen, n, cnt) for _ in range(3))
        d = dist(a, b)
        return np.abs(dist(group_mul(z, a), group_mul(z, b)) - d) / np.maximum(1.0, d)

    for name, stream_id, error in (
        ("group_associative", 11, associative),
        ("group_inverse", 12, inverse),
        ("gauge_dilation_homogeneous", 13, homogeneous),
        ("distance_left_invariant", 14, left_invariant),
    ):
        checks.append(_outcome(name, count, worst_over_n(stream_id, error), 1e-12))

    return SuiteReport("core", seed, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# calculus: frame Hessian structure, harmonic trace, conformal relation


def _gauge_power_field(n, power):
    # gauge^power built as exp(power/4 * log(|z|^4 + t^2)); smooth away from 0
    zsq = z_norm_sq(n)
    t = parse_field("t", n).root
    quartic = zsq * zsq + t * t
    return AnalyticField(exp_of(Const(power / 4.0) * log_of(quartic)), n)


@dataclass(frozen=True, eq=False)
class _Given(Node):
    """A leaf whose jets are already taken, stacked over a batch: psi's, so a
    tree over it walks psi once, and the leaves and partial sums and products
    of the lockstep polynomial walk."""

    jet: tuple

    def jets(self, env, axes, shape):
        return self.jet


def _random_polynomials(gen, n, count, half, degree, terms=8):
    """``count`` polynomials "c0 + c1*m1 + ... + c8*m8" and a point for each,
    drawn as arrays: the signed coefficients parse_field makes of "%.6f" % c
    (round() rounds as the format does), each term's degree and the
    coordinate index of each factor (0 past the degree)."""
    d = 2 * n + 1

    def coefficient():
        # exactly what uniform(-1, 1) draws, at about a quarter of its cost
        c = -1.0 + 2.0 * gen.random()
        return math.copysign(round(abs(c), 6), c)

    coef, deg, factors, points = [], [], [], []
    for _ in range(count):
        coef.append(coefficient())
        for _ in range(terms):
            deg.append(int(gen.integers(1, degree + 1)))
            # integers(d) draws what gen.choice(names) drew, at a fifth of the cost
            idx = [int(gen.integers(d)) for _ in range(deg[-1])]
            factors.append(idx + [0] * (degree - deg[-1]))
            coef.append(coefficient())
        points.append(gen.uniform(-half, half, size=d))
    poly = (np.reshape(coef, (count, terms + 1)), np.reshape(deg, (count, terms)),
            np.reshape(factors, (count, terms, degree)))
    return poly, np.array(points)


def _polynomial_jets(poly, points):
    """Each polynomial's jets at its point, the batch on the last axis.

    One walk for all of them of the tree parse_field builds of the text:
    a left-nested product per term, then a left-nested sum.  A term takes
    its product at its own length, so every lane runs exactly its own
    tree's elementwise operations and has its bits."""
    coef, deg, factors = poly
    count, d = points.shape
    lanes = np.arange(count)
    hess0 = np.zeros((d, d, count))

    def constant(c):
        zero = c * 0.0  # Const's zeros are +0, Neg(Const)'s are -0
        return _Given((c, np.broadcast_to(zero, (d, count)), np.broadcast_to(zero, (d, d, count))))

    def variable(a):
        grad = np.zeros((d, count))
        grad[a, lanes] = 1.0
        return _Given((points[lanes, a], grad, hess0))

    total = constant(coef[:, 0])
    for k in range(deg.shape[1]):
        term = Mul(constant(coef[:, k + 1]), variable(factors[:, k, 0])).jets(None, None, None)
        for j in range(1, deg[:, k].max()):
            longer = Mul(_Given(term), variable(factors[:, k, j])).jets(None, None, None)
            term = tuple(np.where(deg[:, k] > j, a, b) for a, b in zip(longer, term))
        total = _Given(Add(total, _Given(term)).jets(None, None, None))
    return total.jet


def suite_calculus(seed, count=100):
    checks = []

    # the full frame Hessian V_j V_i u is the symmetric contraction plus
    # u_t d_j c_i, with d_j c_i the Euclidean derivatives of the frame's
    # t-coefficients; its antisymmetric part must be 4 u_t J
    worst = 0.0
    gen = stream(seed, stream_id=21)
    fields_per_n = {1: count - count // 3, 2: count // 3}
    for n, cnt in fields_per_n.items():
        if not cnt:
            continue
        poly, coords = _random_polynomials(gen, n, cnt, 1.5, degree=3)
        u, grad, H = _polynomial_jets(poly, coords)
        sym, _ = contract(OperatorSpec(), coords, u, H, grad)
        u_t = grad[-1]
        # c is affine in the point, so a unit step gives d_j c_i up to rounding
        steps = coords[:, None, :] + np.eye(2 * n + 1)[: 2 * n]
        dc = frame_t_coefficients(steps) - frame_t_coefficients(coords)[:, None, :]
        full = np.stack([np.stack(row, axis=-1) for row in sym], axis=-2)
        full += u_t[:, None, None] * dc.swapaxes(-1, -2)
        resid = np.abs((full - full.swapaxes(-1, -2)) - 4.0 * u_t[:, None, None] * j_matrix(n))
        worst = max(worst, float((resid.max(axis=(-2, -1)) / (1.0 + np.abs(u_t))).max()))
    checks.append(_outcome("hessian_commutator", count, worst, 1e-10))

    # trace of the symmetrized frame Hessian of gauge^(2-Q) vanishes (n=1);
    # points are drawn in blocks, which keeps the points a one-at-a-time
    # rejection loop keeps
    gen = stream(seed, stream_id=22)
    pts = 10 * count
    kept = np.empty((0, 3))
    while len(kept) < pts:
        block = gen.uniform(-2.0, 2.0, size=(pts, 3))
        kept = np.concatenate([kept, block[gauge(block) >= 0.5]])
    F, _ = eval_F(OperatorSpec(), _gauge_power_field(1, -2.0), kept[:pts])
    worst = float(np.abs(np.trace(F, axis1=-2, axis2=-1)).max())
    checks.append(_outcome("gauge_harmonic_trace", pts, worst, 1e-6))

    # conformal change of variables u = exp(-(Q-2) psi / 2); psi's jets are
    # taken in one lockstep walk, and both sides are evaluated on them
    worst = 0.0
    gen = stream(seed, stream_id=23)
    per_n = max(1, count // 2)
    for n in (1, 2):
        Q = 2 * n + 2
        poly, coords = _random_polynomials(gen, n, per_n, 0.8, degree=2)
        psi = _polynomial_jets(poly, coords)
        u = AnalyticField(exp_of(Const(-(Q - 2.0) / 2.0) * _Given(psi)), n)
        lhs = eval_A_u(u.jets(coords), coords)
        # psi's value from its jets has the bits of psi(coords) on these trees
        rhs = np.exp(2.0 * psi[0])[:, None, None] * eval_A_psi(psi, coords)
        scale = 1.0 + np.abs(rhs).max(axis=(-2, -1))
        worst = max(worst, float((np.abs(lhs - rhs).max(axis=(-2, -1)) / scale).max()))
    checks.append(_outcome("conformal_change_of_variables", 2 * per_n, worst, 1e-8))

    return SuiteReport("calculus", seed, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# cones: admissible-set axioms and the deliberate non-cone


def _axiom_outcome(name, report):
    total = sum(c.checked for c in report.conditions)
    bad = sum(c.violations for c in report.conditions)
    witness = next((c.witness for c in report.conditions if c.witness), None)
    return CheckOutcome(
        name=name, passed=report.passed, checked=total, error=float(bad), tol=0.0,
        detail={"skipped": int(report.skipped), "witness": witness},
    )


def suite_cones(seed, count=1500, tamper=False):
    checks = []
    families = [
        ("trace", ConeSpec("trace")),
        ("posdef", ConeSpec("posdef")),
        ("sigma_1", ConeSpec("sigma_k", k=1)),
        ("sigma_2", ConeSpec("sigma_k", k=2)),
    ]
    if tamper:
        # deliberately breaks the scaling axiom: {tr M > 1} is not a cone
        families[0] = ("trace", shifted_trace_spec(2))
    for i, (name, cone) in enumerate(families):
        rep = check_axioms(cone, seed + 31 * (i + 1), count, 2)
        checks.append(_axiom_outcome(f"axioms_{name}", rep))

    # the shifted-trace family must FAIL the scaling axiom with a witness
    rep = check_axioms(shifted_trace_spec(2), seed + 311, count, 2)
    shrink = rep.condition("scale_invariant_shrink")
    caught = (not rep.passed) and shrink.violations > 0 and shrink.witness is not None
    checks.append(
        CheckOutcome(
            name="non_cone_detected", passed=caught, checked=shrink.checked,
            error=0.0 if caught else 1.0, tol=0.0,
            detail={"witness": shrink.witness},
        )
    )
    return SuiteReport("cones", seed, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# envelopes: fixture property checks


def _envelope_fixture_checks(tag, v, eps_list):
    checks = []
    for mode, build in (("upper", upper_envelope), ("lower", lower_envelope)):
        results = [build(v, eps) for eps in eps_list]
        r = results[1]
        wit = check_witness_bound(r, v)
        checks.append(
            CheckOutcome(
                name=f"{tag}_{mode}_witness_identity", passed=wit.passed,
                checked=int(v.values.size),
                error=float(wit.identity_violations + wit.reach_violations), tol=0.0,
            )
        )
        gap = r.out.values - v.values if mode == "upper" else v.values - r.out.values
        checks.append(_outcome(f"{tag}_{mode}_dominates_source", int(v.values.size),
                               float(max(0.0, -gap.min())), 0.0))
        semi = check_semiconvexity(r)
        checks.append(
            CheckOutcome(
                name=f"{tag}_{mode}_semiconvex_bound", passed=semi.passed,
                checked=int(semi.checked), error=float(semi.violations), tol=0.0,
            )
        )
        mono = check_monotone_convergence(results, v)
        checks.append(
            CheckOutcome(
                name=f"{tag}_{mode}_eps_monotone", passed=mono.passed,
                checked=len(eps_list),
                error=float(mono.pointwise_violations + mono.deviation_violations),
                tol=0.0,
            )
        )
    return checks


def envelope_fixtures():
    """The envelope fixtures on [-1, 1]^3: a constant 7^3 field and a 9^3 unit spike."""
    spike = np.zeros((9, 9, 9))
    spike[4, 4, 4] = 1.0
    return {"constant": GridField(1, _BOX1.copy(), np.full((7, 7, 7), 0.75)),
            "spike": GridField(1, _BOX1.copy(), spike)}


def suite_envelopes(seed, count=None):
    del count  # fixture-driven; nothing to sample
    del seed
    eps_list = [1.0, 0.5, 0.25]
    checks = [c for tag, v in envelope_fixtures().items()
              for c in _envelope_fixture_checks(tag, v, eps_list)]
    return SuiteReport("envelopes", 0, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# structural: coefficient growth/sign gate


def suite_structural(seed, count=2000):
    checks = []
    dom = Domain(_BOX1.copy())

    rep = check_structural(conformal_operator_spec(), dom, seed + 41, count)
    bad = sum(1 for c in rep.conditions if c.required and not c.passed)
    checks.append(
        CheckOutcome(
            name="distinguished_spec_passes", passed=rep.passed, checked=int(rep.samples),
            error=float(bad), tol=0.0, detail={"branch": rep.branch},
        )
    )

    falling = OperatorSpec(
        alpha=parse_field("0.0 - s", 1, extra_vars=("s",)), beta=0.5, gamma=1.0
    )
    rep = check_structural(falling, dom, seed + 42, count)
    witness = next((c.witness for c in rep.conditions if not c.passed and c.witness), None)
    caught = (not rep.passed) and witness is not None
    failing = [c.name for c in rep.conditions if c.required and not c.passed]
    checks.append(
        CheckOutcome(
            name="falling_coefficient_detected", passed=caught, checked=int(rep.samples),
            error=0.0 if caught else 1.0, tol=0.0,
            detail={"failing_conditions": failing, "witness": witness},
        )
    )
    return SuiteReport("structural", seed, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# lemma35: perturbation margin certificates


def suite_lemma35(seed, count=400):
    spec = conformal_operator_spec()
    fixtures = [
        ("linear", parse_field("0.4*x1", 1)),
        ("polynomial", parse_field("0.2*x1*x1 - 0.15*y1 + 0.1*x1*t", 1)),
    ]
    names, pencils = [], []
    for i, (tag, psi) in enumerate(fixtures):
        nodes = stream(seed, stream_id=51 + i).uniform(-1.0, 1.0, size=(count, 3))
        for mode in ("up", "down"):
            names.append(f"{tag}_{mode}_gain")
            pencils.append(margin_pencil(psi, spec, nodes, mode=mode))
    checks = []
    for name, pencil, k0 in zip(names, pencils, largest_couplings(pencils)):
        if k0 <= 0.0:
            checks.append(
                CheckOutcome(
                    name=name, passed=False, checked=pencil.node_count, error=1.0, tol=0.0,
                    detail={"k0_max": k0},
                )
            )
            continue
        least = float(pencil.margins(0.5 * k0).min())
        checks.append(_outcome(name, pencil.node_count, max(0.0, -least), 1e-8,
                               detail={"k0_max": k0, "k0_tested": 0.5 * k0}))
    return SuiteReport("lemma35", seed, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# keylemma: envelope-shift certificate


def suite_keylemma(seed, count=None):
    del count  # fixture-driven
    del seed
    checks = []
    dom = Domain(_BOX1.copy())
    w = sample(parse_field("0.0 - (x1*x1 + y1*y1 + t*t)", 1), dom, (13, 13, 13))
    for eps in (0.5, 0.25):
        rep = key_lemma_certificate(
            w, eps, OperatorSpec(0.0, 0.0, 0.0), ConeSpec("trace"), a=1000.0, M=10.0,
            mode="super",
        )
        ok = rep.passed and rep.interior_failures == 0 and rep.coverage >= 0.99
        checks.append(
            CheckOutcome(
                name=f"quadratic_super_eps_{eps}", passed=ok, checked=int(rep.testable),
                error=float(1.0 - rep.coverage), tol=0.01,
                detail={"min_a": rep.min_a, "collar_failures": int(rep.collar_failures)},
            )
        )
    v = sample(parse_field("x1*x1 + y1*y1 + t*t", 1), dom, (13, 13, 13))
    rep = key_lemma_certificate(
        v, 0.5, OperatorSpec(0.0, 0.0, 0.0), ConeSpec("trace"), a=1000.0, M=10.0, mode="sub"
    )
    ok = rep.passed and rep.interior_failures == 0 and rep.coverage >= 0.99
    checks.append(
        CheckOutcome(
            name="quadratic_sub_eps_0.5", passed=ok, checked=int(rep.testable),
            error=float(1.0 - rep.coverage), tol=0.01,
            detail={"min_a": rep.min_a, "collar_failures": int(rep.collar_failures)},
        )
    )
    return SuiteReport("keylemma", 0, all(c.passed for c in checks), checks)


# ---------------------------------------------------------------------------
# dispatch


_SUITES = {
    "core": suite_core,
    "calculus": suite_calculus,
    "cones": suite_cones,
    "envelopes": suite_envelopes,
    "structural": suite_structural,
    "lemma35": suite_lemma35,
    "keylemma": suite_keylemma,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name, seed, count=None, tamper=False, pool=None):
    """Run one named suite (or "all") and return its report.

    ``count`` overrides the per-suite default sample count; ``tamper``
    swaps the deliberate non-cone into the cones suite so the run fails
    with a witness.  ``pool`` is an optional executor used by "all" to run
    the member suites concurrently (results are assembled in a fixed
    order, so the output does not depend on the schedule).
    """
    check_seed(seed)
    if count is not None and count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if name == "all":
        def run_one(member):
            return run_suite(member, seed, count=count, tamper=tamper)

        if pool is None:
            reports = [run_one(m) for m in _SUITES]
        else:
            reports = list(pool.map(run_one, _SUITES))
        return SuiteReport(
            suite="all", seed=seed, passed=all(r.passed for r in reports),
            checks=[replace(c, name=f"{r.suite}.{c.name}") for r in reports for c in r.checks],
        )
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITE_NAMES)}")
    fn = _SUITES[name]
    kwargs = {}
    if count is not None:
        kwargs["count"] = count
    if name == "cones":
        kwargs["tamper"] = tamper
    return fn(seed, **kwargs)


def report_json(report):
    """Deterministic JSON text for a suite report (sorted keys, LF, indent 2)."""
    return json_text(report.to_dict(), pretty=True)
