"""Tests for sup/inf convolutions: exact brute-force optimality, the
monotonicity/semiconvexity/witness property checks, and the
group-translation structure of the kernel."""

import tracemalloc

import numpy as np
import pytest

from heisvisc.core import dist
from heisvisc.envelopes import (
    _z_parts,
    check_monotone_convergence,
    check_semiconvexity,
    check_witness_bound,
    gauge_quartic,
    lower_envelope,
    upper_envelope,
)
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.rng import stream

BOX1 = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


def constant_field(c=0.75, res=7):
    return GridField(1, BOX1, np.full((res, res, res), c))


def spike_field(res=9):
    vals = np.zeros((res, res, res))
    vals[res // 2, res // 2, res // 2] = 1.0
    return GridField(1, BOX1, vals)


def smooth_field(res=9):
    f = parse_field("0.5*x1*x1 - 0.3*y1 + 0.2*t*x1", 1)
    return sample(f, Domain(BOX1), res)


def rough_field(res=9):
    # a quadratic plus a min(.,.) kink, built like the benchmark's rough field
    f = parse_field(
        "0.3 - 0.6*x1 + 0.4*y1 + 0.2*t + 0.7*x1*x1 - 0.5*y1*y1 + 0.3*t*t"
        " + 0.4*x1*y1 - 0.2*x1*t + 0.6*y1*t + 1.5*min(1.2*x1 + 1.7*y1, 1.4*t)",
        1,
    )
    return sample(f, Domain(BOX1), res)


# -- kernel -------------------------------------------------------------------


def test_gauge_quartic_matches_group_distance():
    gen = stream(51)
    for n in (1, 2):
        a = gen.uniform(-2, 2, size=(40, 2 * n + 1))
        b = gen.uniform(-2, 2, size=(40, 2 * n + 1))
        d4 = gauge_quartic(a, b, n)
        ref = dist(a, b) ** 4
        np.testing.assert_allclose(d4, ref, rtol=1e-12, atol=1e-14)
        assert d4.min() >= 0


def test_z_parts_has_the_bits_of_the_axis_reductions():
    # per-coordinate sums left to right against the reductions over the last
    # axis they replaced, on the pair layout of the search and with entries
    # eight orders apart, where any other summation order rounds differently
    gen = stream(52)
    for n in (1, 2, 3):
        for scale in (1e-8, 1.0, 1e8):
            z = gen.uniform(-1, 1, size=(60, 2 * n)) * scale
            z[gen.random(z.shape) < 0.3] *= 1e8
            a, b = z[:7, None], z[None]
            dz = a - b
            zs, shear = _z_parts(a, b, n)
            np.testing.assert_array_equal(zs, np.square(dz).sum(axis=-1))
            np.testing.assert_array_equal(shear, 2.0 * (
                (a[..., n:] * b[..., :n]).sum(axis=-1) - (a[..., :n] * b[..., n:]).sum(axis=-1)))
    # summed as 2^54 + (1 + 1 + 1) this would be 2^54 + 4
    z = np.array([[2.0**27, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    assert _z_parts(z[0], z[1], 2)[0] == 2.0**54


# -- envelope values ------------------------------------------------------------


def test_constant_field_envelope_is_identity():
    v = constant_field()
    r = upper_envelope(v, 0.5)
    np.testing.assert_array_equal(r.out.values, v.values)
    flat = np.arange(v.values.size).reshape(v.res)
    np.testing.assert_array_equal(r.witness, flat)
    rl = lower_envelope(v, 0.5)
    np.testing.assert_array_equal(rl.out.values, v.values)
    np.testing.assert_array_equal(rl.witness, flat)


def test_spike_envelope_against_brute_force_oracle():
    v = spike_field(res=7)
    eps = 0.5
    r = upper_envelope(v, eps)
    coords = v.coords_full().reshape(-1, 3)
    vals = v.values.reshape(-1)
    # independent oracle: per-node python loop through the definition using
    # the group distance from core (different code path than the kernel here)
    for i in range(0, coords.shape[0], 17):
        scores = vals - dist(np.broadcast_to(coords[i], coords.shape), coords) ** 4 / eps
        best = np.max(scores)
        assert abs(r.out.values.reshape(-1)[i] - best) < 1e-10
    # closed form: the best zero node is xi itself, so out = max(1 - d4/eps, 0)
    center = coords[coords.shape[0] // 2]
    d4c = gauge_quartic(coords, np.broadcast_to(center, coords.shape), 1)
    closed = np.maximum(1.0 - d4c / eps, 0.0)
    np.testing.assert_allclose(r.out.values.reshape(-1), closed, atol=1e-12)


def _blocked_all_pairs_search(v, eps, mode, block=192):
    """The search as it once ran: every node pair scored, 192 source nodes at
    a time, out-of-window pairs masked afterwards.  Returns (out, witness,
    kernel_sup)."""
    n = v.n
    coords = v.coords_full().reshape(-1, 2 * n + 1)
    vals = v.values.reshape(-1)
    window = eps * (vals.max() - vals.min())
    shear_part = 2.0 * (1.0 + 4.0 * np.square(coords[:, : 2 * n]).sum(axis=1))
    kernel_sup = 0.0
    out = np.empty(vals.size)
    wit = np.empty(vals.size, dtype=np.int64)
    for start in range(0, vals.size, block):
        a = coords[start : start + block, None, :]
        b = coords[None, :, :]
        zs = np.square(a[..., : 2 * n] - b[..., : 2 * n]).sum(axis=-1)
        shear = 2.0 * (
            (a[..., n : 2 * n] * b[..., :n]).sum(axis=-1)
            - (a[..., :n] * b[..., n : 2 * n]).sum(axis=-1)
        )
        d4 = zs * zs + np.square(a[..., 2 * n] - b[..., 2 * n] + shear)
        far = d4 > window
        kern = 12.0 * zs + shear_part[None, :]
        kern[far] = -np.inf
        kernel_sup = max(kernel_sup, float(kern.max()))
        if mode == "upper":
            scores = vals[None, :] - d4 / eps
            scores[far] = -np.inf
            idx = np.argmax(scores, axis=1)
        else:
            scores = vals[None, :] + d4 / eps
            scores[far] = np.inf
            idx = np.argmin(scores, axis=1)
        rows = np.arange(idx.size)
        out[start : start + block] = scores[rows, idx]
        wit[start : start + block] = idx
    return out.reshape(v.res), wit.reshape(v.res), kernel_sup


def _edge_tie_field(sign, peaks=((0, 0, 0),), shape=(5, 5, 5)):
    # eps puts one far pair per peak a rounding step outside the window
    # while its score ties the node itself: unmasked, the smaller index (the
    # peak) wins.  A peak at (a, b, 0) does so for node (a, b, 4), so the
    # four corner peaks of a 5^3 field need the repair in z-rows 0, 4, 20
    # and 24
    vals = np.zeros(shape)
    for peak in peaks:
        vals[peak] = sign * 0.001
    return GridField(1, BOX1, vals)


def test_search_matches_all_pairs_reference():
    uneven = np.array([[-0.5, 1.5], [-2.0, 0.25], [-1.0, 3.0]])
    box2 = np.array([[-1.0, 1.0]] * 5)
    fields = {
        "constant": constant_field(),
        "spike": spike_field(),
        "kinked": sample(parse_field("max(x1, 0.0 - t) + 0.3*y1", 1), Domain(BOX1), 9),
        "n2": sample(parse_field("min(x1*y2, t) + 0.2*x2 - 0.4*y1*y1", 2), Domain(box2), 5),
        "non_cubic": sample(
            parse_field("x1*y1 + 0.3*t*t - max(x1 - 0.2, 0.2 - x1)", 1), Domain(uneven), (7, 5, 9)
        ),
        "zero_oscillation": GridField(1, uneven, np.zeros((6, 5, 4))),
    }
    cases = [(name, v, eps) for name, v in fields.items() for eps in (5.0, 0.05, 1e-12)]
    # kernel_sup here needs a row pair whose closest dt lies below -shear
    cases += [("non_cubic", fields["non_cubic"], 0.03)]
    # cases where the row bound drops target rows: values on multiples of
    # 0.25 and dyadic eps make exact ties that cross z-rows
    quantised = GridField(1, BOX1, np.round(stream(61).uniform(0, 1, size=(9, 9, 9)) * 4) / 4)
    n2_quantised = GridField(2, box2, np.round(stream(62).normal(size=(4, 4, 4, 4, 5)) * 4) / 4)
    cases += [("quantised", quantised, eps) for eps in (4.0, 0.0625)]
    cases += [("rough", rough_field(), eps) for eps in (5.0, 0.05)]
    cases += [("n2_quantised", n2_quantised, 5.0)]
    cases += [("edge_tie", _edge_tie_field(1.0), 3999.9999999999995)]
    cases += [("edge_tie_negated", _edge_tie_field(-1.0), 3999.9999999999995)]
    corners = ((0, 0, 0), (0, 4, 0), (4, 0, 0), (4, 4, 0))
    cases += [("edge_tie_rows", _edge_tie_field(1.0, corners), 3999.9999999999995)]
    cases += [("edge_tie_rows_negated", _edge_tie_field(-1.0, corners), 3999.9999999999995)]
    # one block holds all 81 z-rows of a 9 x 9 x 5 field, and these peaks
    # need the repair in z-rows 0, 8, 24, 40, 72 and 80, five of them past
    # the block's first T rows
    spread = ((0, 0, 0), (4, 4, 0), (8, 8, 0), (0, 8, 0), (8, 0, 0), (2, 6, 0))
    for sign in (1.0, -1.0):
        tie = _edge_tie_field(sign, spread, shape=(9, 9, 5))
        cases += [(f"edge_tie_block_{sign:+.0f}", tie, 3999.9999999999995)]
    # 625 z-rows of five nodes go in blocks of 26 rows, the last of one row
    n2_random = GridField(2, box2, stream(63).normal(size=(5,) * 5))
    cases += [("n2_random", n2_random, eps) for eps in (5.0, 0.05)]
    for name, v, eps in cases:
        for mode, build in (("upper", upper_envelope), ("lower", lower_envelope)):
            out, wit, kernel_sup = _blocked_all_pairs_search(v, eps, mode)
            r = build(v, eps)
            assert r.out.values.tobytes() == out.tobytes(), (name, eps, mode)
            np.testing.assert_array_equal(r.witness, wit, err_msg=f"{name} {eps} {mode}")
            assert r.kernel_sup == kernel_sup, (name, eps, mode)


def test_search_memory_stays_within_one_row_block():
    # the search's largest buffer holds one source row's candidates, T * N
    # floats (0.67 MB at 17^3), and the traced peak is 2.4 MB with blocks of
    # 56 source rows; the same search over all R source rows at once, not a
    # block at a time, peaks at 9 MB
    v = rough_field(res=17)
    upper_envelope(rough_field(res=5), 5.0)  # lazy imports would count otherwise
    tracemalloc.start()
    try:
        upper_envelope(v, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_upper_dominates_and_lower_is_dominated():
    v = smooth_field()
    for eps in (1.0, 0.25):
        assert np.all(upper_envelope(v, eps).out.values >= v.values)
        assert np.all(lower_envelope(v, eps).out.values <= v.values)


def test_duality_between_upper_and_lower():
    v = smooth_field()
    neg = GridField(v.n, v.box, -v.values)
    lo = lower_envelope(v, 0.4)
    up = upper_envelope(neg, 0.4)
    np.testing.assert_array_equal(lo.out.values, -up.out.values)
    np.testing.assert_array_equal(lo.witness, up.witness)


def test_envelope_validation():
    v = constant_field()
    with pytest.raises(ValueError):
        upper_envelope(v, 0.0)
    with pytest.raises(ValueError):
        upper_envelope(v, -1.0)
    bad = constant_field()
    bad.values[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        upper_envelope(bad, 0.5)


def test_t_translation_equivariance():
    # pure t-translations map the lattice to a shifted lattice and leave the
    # kernel invariant, so envelope values transport node-for-node
    v = smooth_field(res=7)
    c = float(v.spacing[2]) * 2
    box2 = v.box.copy()
    box2[2] += c
    v2 = GridField(v.n, box2, v.values.copy())
    r1 = upper_envelope(v, 0.35)
    r2 = upper_envelope(v2, 0.35)
    np.testing.assert_allclose(r2.out.values, r1.out.values, atol=1e-10)
    np.testing.assert_array_equal(r2.witness, r1.witness)


# -- property checks --------------------------------------------------------------


def envelope_ladder(v, eps_list, mode):
    build = upper_envelope if mode == "upper" else lower_envelope
    return [build(v, eps) for eps in eps_list]


def test_monotone_convergence_smooth():
    v = smooth_field()
    for mode in ("upper", "lower"):
        rep = check_monotone_convergence(envelope_ladder(v, [0.8, 0.4, 0.2, 0.1], mode), v)
        assert rep.passed
        assert rep.ordering_ok
        assert rep.mode == mode
        assert rep.deviations[-1] < rep.deviations[0]


def test_monotone_convergence_constant_is_exact():
    v = constant_field()
    rep = check_monotone_convergence(envelope_ladder(v, [0.5, 0.25], "upper"), v)
    assert rep.passed
    assert rep.deviations == (0.0, 0.0)


def test_monotone_convergence_rejects_bad_ordering():
    v = constant_field()
    rep = check_monotone_convergence(envelope_ladder(v, [0.25, 0.5], "upper"), v)
    assert not rep.passed
    assert not rep.ordering_ok
    assert rep.witness == {"index": 0, "eps": 0.25, "eps_next": 0.5}
    with pytest.raises(ValueError):
        check_monotone_convergence(envelope_ladder(v, [0.5], "upper"), v)


def test_monotone_convergence_refuses_mixed_modes():
    v = constant_field()
    with pytest.raises(ValueError, match="mixed modes"):
        check_monotone_convergence([upper_envelope(v, 0.5), lower_envelope(v, 0.25)], v)


def test_semiconvexity_constant_field():
    rep = check_semiconvexity(upper_envelope(constant_field(), 0.5))
    assert rep.passed
    assert rep.checked > 0
    assert rep.worst >= -rep.tol


def test_semiconvexity_spike_both_modes():
    v = spike_field()
    up = check_semiconvexity(upper_envelope(v, 0.5))
    assert up.passed, (up.worst, up.bound)
    lo = check_semiconvexity(lower_envelope(v, 0.5))
    assert lo.passed, (lo.worst, lo.bound)


def test_semiconvexity_bound_scales_with_eps():
    v = spike_field()
    r1 = check_semiconvexity(upper_envelope(v, 0.5))
    r2 = check_semiconvexity(upper_envelope(v, 0.25))
    # halving eps roughly doubles the allowed negativity: the window shrinks,
    # so the sampled constant cannot grow
    assert r2.bound >= r1.bound
    assert r2.bound <= 2.0 * r1.bound * (1.0 + 1e-12)
    assert r2.kernel_constant <= r1.kernel_constant * (1.0 + 1e-12)


def _kernel_sup_reference(r):
    """The all-pairs scan check_semiconvexity once ran, one source row at a time."""
    n = r.out.n
    coords = r.out.coords_full().reshape(-1, 2 * n + 1)
    window = r.eps * (r.source_max - r.source_min)
    z_eta_sq = np.square(coords[:, : 2 * n]).sum(axis=1)
    best = 0.0
    for xi in coords:
        dz = xi[None, : 2 * n] - coords[:, : 2 * n]
        zs = np.square(dz).sum(axis=-1)
        val = 12.0 * zs + 2.0 * (1.0 + 4.0 * z_eta_sq)
        val[gauge_quartic(xi[None, :], coords, n) > window] = -np.inf
        best = max(best, float(val.max()))
    return best


def test_recorded_kernel_constant_matches_all_pairs_scan():
    kinked = sample(parse_field("max(x1, 0.0 - t) + 0.3*y1", 1), Domain(BOX1), 9)
    box2 = np.array([[-1.0, 1.0]] * 5)
    wavy = sample(parse_field("min(x1*y2, t) + 0.2*x2 - 0.4*y1*y1", 2), Domain(box2), 5)
    for v in (kinked, wavy):
        for eps in (5.0, 0.05):
            for env in (upper_envelope, lower_envelope):
                r = env(v, eps)
                ref = _kernel_sup_reference(r)
                assert r.kernel_sup == ref
                assert check_semiconvexity(r).kernel_constant == 1.1 * ref


def test_witness_bound_and_exact_optimality():
    for v in (spike_field(), smooth_field()):
        for mode, env in (("upper", upper_envelope), ("lower", lower_envelope)):
            r = env(v, 0.5)
            rep = check_witness_bound(r, v)
            assert rep.passed, rep.witness
            assert rep.identity_violations == 0
            assert rep.reach_violations == 0
            assert rep.max_reach_slack <= 0.0 + rep.eps * 1e-9 * 3


def test_witness_bound_rejects_foreign_field():
    v = smooth_field()
    r = upper_envelope(v, 0.5)
    other = constant_field(res=5)
    with pytest.raises(ValueError):
        check_witness_bound(r, other)
