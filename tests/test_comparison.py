"""Tests for the perturbation family, its margin certificate, and the
touching harness."""

import math

import numpy as np
import pytest
import sympy as sp
from scipy import ndimage

from heisvisc.comparison import (
    _ALPHA,
    _BETA,
    _M,
    _MU,
    _MU0,
    _TAU,
    MarginPencil,
    _components,
    admissible_region_mask,
    largest_couplings,
    margin_pencil,
    perturb_down,
    perturb_up,
    touching_harness,
)
from heisvisc.cones import ConeSpec, entries
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.gridio import json_text
from heisvisc.operators import OperatorSpec, conformal_operator_spec
from heisvisc.rng import stream

BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])

K0 = 0.05   # the coupling constant the margin checks are taken at


# -- the Lemma 3.5 constants -------------------------------------------------


def test_params_accepts_valid_and_zero_mu():
    # the fixed constants are the lemma35 suite's: mu is half the ceiling
    assert _MU == 0.5 * 0.45 / (3.0 * math.exp(3.0 * 0.5))
    assert _BETA > 0.0
    assert _M > 0.0


def test_params_rejects_mu_at_or_above_ceiling():
    assert 0.0 < _MU < _MU0


def test_params_rejects_flat_or_steep_radial_shape():
    assert 0.0 < _ALPHA < 1.0


def test_params_rejects_wide_region_slack():
    # the admissible region needs no slack on the bump: with tau = 1 the
    # bump is at least exp(-beta*psi) > 0, so it is positive at every node
    # with |psi| <= M
    nodes = Domain(BOX1).sample_points(stream(9), 400)
    for psi in (parse_field("x1", 1), parse_field("0.6*t - 0.3*x1*y1", 1)):
        keep = admissible_region_mask(psi, nodes)
        assert 0 < keep.sum() < 400
        vals = psi(nodes)[keep]
        bump = (perturb_up(psi)(nodes)[keep] - vals) / _MU
        assert (bump > 0.0).all()
        assert (bump >= 0.999 * np.exp(-_BETA * vals)).all()


def test_params_rejects_uncontrolled_damping():
    # exp(beta*M) dominates sup exp(-beta*psi) whenever |psi| <= M
    assert _MU0 * _BETA * math.exp(_BETA * _M) <= 0.5


# -- the perturbation family -------------------------------------------------


def test_zero_field_gives_radial_bump():
    # exp(-beta*0) = 1 = tau, so only the radial factor is left
    psi = parse_field("0.0", 1)
    up = perturb_up(psi)
    pts = Domain(BOX1).sample_points(stream(4), 60)
    z_sq = np.square(pts[:, :2]).sum(axis=1)
    np.testing.assert_allclose(up(pts), _MU * np.exp(_ALPHA * z_sq), rtol=1e-14, atol=1e-16)


def test_lowered_field_is_reflection_through_original():
    psi = parse_field("x1*y1 + 0.5*t", 1)
    up = perturb_up(psi)
    down = perturb_down(psi)
    pts = Domain(BOX1).sample_points(stream(5), 60)
    np.testing.assert_allclose(
        down(pts), 2.0 * psi(pts) - up(pts), rtol=1e-13, atol=1e-15
    )


def test_lowered_field_sits_below_where_bump_positive():
    psi = parse_field("x1", 1)
    down = perturb_down(psi)
    pts = Domain(BOX1).sample_points(stream(6), 60)
    # exp(alpha|z|^2) >= 1 and exp(-beta x1) > 0, so the bump beats tau = 1
    assert np.all(down(pts) < psi(pts))


def test_raised_field_dominates_when_tau_small_enough():
    # tau = 1 is small enough: the bump beats it wherever exp(alpha|z|^2) >= 1
    psi = parse_field("0.2*x1 - 0.1*y1", 1)
    up = perturb_up(psi)
    pts = Domain(BOX1).sample_points(stream(7), 60)
    assert np.all(up(pts) > psi(pts))


def test_perturbed_jets_match_symbolic_oracle():
    psi = parse_field("0.4*x1*x1 - 0.3*y1*t", 1)
    up = perturb_up(psi)

    x1, y1, t = sp.symbols("x1 y1 t")
    base = sp.Rational(2, 5) * x1**2 - sp.Rational(3, 10) * y1 * t
    expr = base + _MU * (
        sp.exp(_ALPHA * (x1**2 + y1**2)) + sp.exp(-_BETA * base) - _TAU
    )
    syms = (x1, y1, t)
    at = np.array([0.4, -0.7, 0.3])
    subs = dict(zip(syms, at))

    value, egrad, ehess = up.jets(at)
    assert value == pytest.approx(float(expr.subs(subs)), rel=1e-13)
    grad = [float(sp.diff(expr, v).subs(subs)) for v in syms]
    hess = [[float(sp.diff(expr, a, b).subs(subs)) for b in syms] for a in syms]
    np.testing.assert_allclose(egrad, grad, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(ehess, hess, rtol=1e-12, atol=1e-14)


# -- admissible region -------------------------------------------------------


def test_admissible_region_cuts_large_values():
    psi = parse_field("x1", 1)
    pts = Domain(BOX1).sample_points(stream(8), 200)
    mask = admissible_region_mask(psi, pts)
    np.testing.assert_array_equal(mask, np.abs(pts[:, 0]) <= _M)


# -- margin certificate ------------------------------------------------------


def lemma35_margin(psi, spec, nodes, mode="up"):
    """The pencil and its largest passing coupling, searched on its own."""
    pencil = margin_pencil(psi, spec, nodes, mode)
    return pencil, largest_couplings([pencil])[0]


def passes(pencil, k0):
    return float(pencil.margins(k0).min()) >= -pencil.tol


@pytest.fixture(scope="module")
def margin_nodes():
    return Domain(BOX1).sample_points(stream(7), 400)


def test_margin_linear_field_yields_positive_coupling(margin_nodes):
    psi = parse_field("x1", 1)
    pencil, k0_max = lemma35_margin(psi, conformal_operator_spec(), margin_nodes)
    assert passes(pencil, K0)
    assert pencil.margins(K0).min() > 0.0
    assert 0.35 < k0_max < 0.45
    assert pencil.node_count == admissible_region_mask(psi, margin_nodes).sum() < 400

    assert passes(pencil, 0.9 * k0_max)
    assert not passes(pencil, 1.1 * k0_max)


def test_margin_mirrored_for_lowered_field(margin_nodes):
    psi = parse_field("x1", 1)
    pencil, k0_max = lemma35_margin(psi, conformal_operator_spec(), margin_nodes, mode="down")
    assert passes(pencil, K0)
    assert pencil.margins(K0).min() > 0.0
    assert k0_max > 0.35


def test_margin_polynomial_field(margin_nodes):
    psi = parse_field("0.2*x1*x1 - 0.15*y1 + 0.1*x1*t", 1)
    pencil, k0_max = lemma35_margin(psi, conformal_operator_spec(), margin_nodes)
    assert passes(pencil, K0)
    assert k0_max > 0.1
    assert pencil.node_count == admissible_region_mask(psi, margin_nodes).sum() == 400


def test_margin_empty_region_is_an_error():
    psi = parse_field("x1", 1)
    far = np.array([[0.9, 0.0, 0.0], [0.95, 0.2, -0.1]])
    with pytest.raises(ValueError, match="admissible"):
        margin_pencil(psi, conformal_operator_spec(), far)


def test_margin_rejects_unknown_mode(margin_nodes):
    with pytest.raises(ValueError, match="mode"):
        margin_pencil(parse_field("x1", 1), conformal_operator_spec(), margin_nodes,
                      mode="sideways")


def _one_pencil_search(pencil):
    """(k0_max, doubling steps) of one pencil, searched on its own."""
    def least(c):
        return float(pencil.margins(c).min())

    if least(0.0) < -pencil.tol:
        return 0.0, 0
    hi, doublings = 1.0, 0
    while least(hi) >= -pencil.tol:
        hi *= 2.0
        doublings += 1
        if hi > 1e12:
            break
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if least(mid) >= -pencil.tol:
            lo = mid
        else:
            hi = mid
    return lo, doublings


def _diagonal_pencil(floors, slope=1.0):
    # A = diag(f, f + 1) and B = (slope/mu) * I at each node: the margin at
    # c is f - c*slope, so k0_max is min(floors) / slope up to bisection
    floors = np.asarray(floors, dtype=float)
    A = np.zeros((floors.size, 2, 2))
    A[:, 0, 0], A[:, 1, 1] = floors, floors + 1.0
    B = (slope / _MU) * np.broadcast_to(np.eye(2), A.shape)
    return MarginPencil(A=entries(A), B=entries(B), tol=1e-8, node_count=floors.size)


def test_lockstep_search_matches_one_pencil_at_a_time(margin_nodes):
    spec = conformal_operator_spec()
    psi = parse_field("0.2*x1*x1 - 0.15*y1 + 0.1*x1*t", 1)
    pencils = [
        margin_pencil(psi, spec, margin_nodes),
        _diagonal_pencil([37.5, 40.0], slope=0.25),
        _diagonal_pencil([0.75, 2.0], slope=0.25),
        _diagonal_pencil([-1.0, 0.5], slope=0.1),
        _diagonal_pencil([0.3, 2.0, 0.7], slope=0.0),
        margin_pencil(psi, spec, margin_nodes[:120], "down"),
    ]
    alone = [_one_pencil_search(pc) for pc in pencils]
    k0s = [k0 for k0, _ in alone]
    # the doubling phases end after 0, 8, 2, 40 and 0 steps (the pencil that
    # never fails stops at the 1e12 ceiling), and failing at c = 0 gives 0.0
    assert [steps for _, steps in alone] == [0, 8, 2, 0, 40, 0]
    assert k0s[3] == 0.0
    assert [repr(k) for k in largest_couplings(pencils)] == [repr(k) for k in k0s]
    assert [repr(k) for k in largest_couplings(pencils[::-1])] == [repr(k) for k in k0s[::-1]]


# -- touching harness --------------------------------------------------------

TRACE = ConeSpec("trace")
ZERO_SPEC = OperatorSpec(alpha=0.0, beta=0.0, gamma=0.0)


def harness_grids(res=9):
    v = sample(parse_field("x1", 1), Domain(BOX1), (res, res, res))
    return v


def test_harness_separated_pair_is_consistent():
    v = harness_grids()
    w = v.copy()
    w.values += 1.0
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert rep.verdict == "CONSISTENT"
    assert rep.touching_count == 0
    assert rep.components == []
    assert rep.boundary_gap == pytest.approx(1.0)
    assert rep.precondition_ok


def test_harness_identical_pair_touches_through_boundary():
    v = harness_grids()
    rep = touching_harness(v.copy(), v, ZERO_SPEC, TRACE)
    assert rep.verdict == "CONSISTENT"
    assert rep.touching_count == v.values.size
    assert len(rep.components) == 1
    assert rep.components[0].touches_boundary
    assert rep.boundary_gap == 0.0


def test_harness_interior_island_is_flagged():
    dom = Domain(BOX1)
    res = (9, 9, 9)
    v = sample(parse_field("0.0", 1), dom, res)
    w = sample(parse_field("x1*x1 + y1*y1 + t*t", 1), dom, res)
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert rep.verdict == "VIOLATION"
    assert rep.touching_count == 1
    assert len(rep.components) == 1
    assert not rep.components[0].touches_boundary
    assert rep.boundary_gap > 0.0
    assert rep.precondition_ok


def test_harness_lists_islands_in_scan_order():
    # contact on the boundary ring and on three interior islands: a bent
    # 3-node one, a single node, and a 2-node one meeting the single node
    # only at an edge, which face adjacency keeps apart
    diff = np.ones((9, 9, 9))
    diff[0, :, :] = diff[-1, :, :] = diff[:, 0, :] = 0.0
    diff[:, -1, :] = diff[:, :, 0] = diff[:, :, -1] = 0.0
    for node in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 5, 5), (3, 6, 5), (4, 6, 5)]:
        diff[node] = 0.0
    v = GridField(1, BOX1.copy(), np.zeros((9, 9, 9)))
    w = GridField(1, BOX1.copy(), diff)
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert rep.to_dict() == {
        "boundary_gap": 0.0,
        "touching_count": 392,
        "components": [{"size": size, "touches_boundary": size == 386}
                       for size in (386, 3, 1, 2)],
        "verdict": "VIOLATION",
    }
    # the line `heisvisc compare` prints and writes
    assert json_text(rep.to_dict()) == (
        '{"boundary_gap": 0.0, "components": ['
        '{"size": 386, "touches_boundary": true}, '
        '{"size": 3, "touches_boundary": false}, '
        '{"size": 1, "touches_boundary": false}, '
        '{"size": 2, "touches_boundary": false}], '
        '"touching_count": 392, "verdict": "VIOLATION"}\n'
    )


@pytest.mark.parametrize("d", [3, 5])
def test_components_match_ndimage_label(d):
    rng = stream(11, d)
    masks = [np.zeros((2,) * d, dtype=bool), np.ones((3,) * d, dtype=bool)]
    for _ in range(40):
        shape = tuple(rng.integers(2, 8 if d == 3 else 5, size=d))
        masks.append(rng.random(shape) < rng.uniform(0.2, 0.8))
    face = ndimage.generate_binary_structure(d, 1)
    for mask in masks:
        labels = _components(mask)
        ref, count = ndimage.label(mask, structure=face)
        roots, order, sizes = np.unique(
            labels[mask], return_inverse=True, return_counts=True)
        # the same partition, numbered in the same order
        np.testing.assert_array_equal(order + 1, ref[mask])
        np.testing.assert_array_equal(sizes, np.bincount(ref.ravel(), minlength=1)[1:])
        # each component is named by its smallest flat index
        firsts = [np.flatnonzero(ref == k)[0] for k in range(1, count + 1)]
        np.testing.assert_array_equal(roots, np.array(firsts, dtype=int))
        assert (labels[~mask] == -1).all()


def test_harness_equal_boundary_data_touches_only_at_boundary():
    dom = Domain(BOX1)
    res = (9, 9, 9)
    v = sample(parse_field("x1", 1), dom, res)
    w = sample(
        parse_field("x1 + 0.3*(1.0 - x1*x1)*(1.0 - y1*y1)*(1.0 - t*t)", 1), dom, res
    )
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert rep.verdict == "CONSISTENT"
    assert rep.precondition_ok
    # the contact set is exactly the boundary shell, one connected component
    assert rep.touching_count == 9**3 - 7**3
    assert len(rep.components) == 1
    assert rep.components[0].touches_boundary
    assert rep.boundary_gap == 0.0


def test_harness_verdict_survives_common_shift():
    dom = Domain(BOX1)
    res = (9, 9, 9)
    v = sample(parse_field("x1", 1), dom, res)
    w = sample(
        parse_field("x1 + 0.3*(1.0 - x1*x1)*(1.0 - y1*y1)*(1.0 - t*t)", 1), dom, res
    )
    base = touching_harness(w, v, ZERO_SPEC, TRACE)
    w2, v2 = w.copy(), v.copy()
    w2.values += 0.7
    v2.values += 0.7
    shifted = touching_harness(w2, v2, ZERO_SPEC, TRACE)
    assert shifted.verdict == base.verdict
    assert shifted.touching_count == base.touching_count
    assert shifted.boundary_gap == pytest.approx(base.boundary_gap, abs=1e-12)


def test_harness_reports_ordering_failure():
    v = harness_grids()
    w = v.copy()
    w.values -= 1.0
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert not rep.precondition_ok
    assert rep.min_difference == pytest.approx(-1.0)


def test_harness_rejects_mismatched_grids():
    v = harness_grids(9)
    w = harness_grids(11)
    with pytest.raises(ValueError, match="lattice"):
        touching_harness(w, v, ZERO_SPEC, TRACE)


def test_harness_attaches_classifications():
    v = harness_grids()
    w = v.copy()
    w.values += 1.0
    rep = touching_harness(w, v, ZERO_SPEC, TRACE)
    assert sum(rep.sub_counts.values()) == v.values.size
    assert sum(rep.super_counts.values()) == v.values.size


def test_harness_json_schema():
    v = harness_grids()
    w = v.copy()
    w.values += 1.0
    payload = touching_harness(w, v, ZERO_SPEC, TRACE).to_dict()
    assert payload == {"boundary_gap": 1.0, "touching_count": 0, "components": [],
                       "verdict": "CONSISTENT"}
    assert json_text(payload) == (
        '{"boundary_gap": 1.0, "components": [], "touching_count": 0, '
        '"verdict": "CONSISTENT"}\n'
    )
