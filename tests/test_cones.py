"""Tests for admissible-set classification: the eigenvalue path (closed form
at d = 2, LAPACK otherwise), the defining values of each family, band
classification of matrix stacks, and the axiom sampler."""

import dataclasses
import json

import numpy as np
import pytest

from heisvisc.cones import (
    ConeSpec,
    check_axioms,
    classify,
    eigenvalues,
    elementary_symmetric,
    entries,
    newton_values,
    shifted_trace_spec,
    spectrum,
    values_from_eigenvalues,
)
from heisvisc.gridio import problem_from_json
from heisvisc.rng import stream

INTERIOR, EXTERIOR, BOUNDARY = 1, -1, 0
REGION_NAMES = {INTERIOR: "Interior", EXTERIOR: "Exterior", BOUNDARY: "Boundary"}


# one matrix through the stack functions, as a stack of one


def eigs(M):
    return eigenvalues(np.asarray(M)[None])[0]


def rho_of(spec, M):
    return float(newton_values(spec, entries(np.asarray(M)[None]))[0][0])


def code(spec, M):
    return int(classify(spec, np.asarray(M)[None])[0])


def random_symmetric(gen, d, scale=1.0):
    W = gen.normal(size=(d, d))
    return 0.5 * (W + W.T) * scale


# -- eigenvalues ----------------------------------------------------------------


def test_eigenvalues_closed_form_examples():
    np.testing.assert_allclose(eigs(np.diag([3.0, 1.0])), [1.0, 3.0])
    np.testing.assert_allclose(
        eigs(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0], atol=1e-14
    )
    np.testing.assert_allclose(eigs(np.eye(3)), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(eigs(np.array([[4.0]])), [4.0])
    # 2x2 with known spectrum: [[2,1],[1,2]] -> 1, 3
    np.testing.assert_allclose(
        eigs(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0], atol=1e-14
    )


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_eigenvalues_match_lapack(d):
    gen = stream(31)
    Ms = np.stack([random_symmetric(gen, d, scale=3.0) for _ in range(50)])
    ours = eigenvalues(Ms)
    ref = np.linalg.eigvalsh(Ms)
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(ours - ref).max() < 1e-11 * scale


@pytest.mark.parametrize("d", [2, 4])
def test_spectrum_vectors_diagonalise(d):
    # d = 2 is the closed form; the repeated and diagonal cases are its edges
    gen = stream(37)
    Ms = np.stack([random_symmetric(gen, d, scale=3.0) for _ in range(50)]
                  + [np.eye(d), np.diag(np.arange(d, 0.0, -1.0))])
    lams, V = spectrum(Ms.transpose(1, 2, 0), vectors=True)
    scale = 1.0 + np.abs(lams).max()
    np.testing.assert_allclose(np.einsum("nij,njk->nik", Ms, V), V * lams[:, None, :],
                               rtol=0, atol=1e-12 * scale)
    gram = np.einsum("nji,njk->nik", V, V)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d), Ms.shape), rtol=0, atol=1e-13)


def test_eigenvalues_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigs(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="N, d, d"):
        eigenvalues(np.eye(2))


def test_symmetry_is_checked_per_matrix_in_a_stack():
    # a large matrix in the same stack must not hide a small one's skew
    skewed = np.array([[0.0, 1e-6], [0.0, 0.0]])
    Ms = np.stack([skewed, np.diag([1e4, 1e4])])
    with pytest.raises(ValueError, match="not symmetric"):
        code(ConeSpec("trace"), skewed)
    with pytest.raises(ValueError, match="not symmetric"):
        classify(ConeSpec("trace"), Ms)
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues(Ms)


def test_eigenvalue_sum_and_product_invariants():
    gen = stream(32)
    M = random_symmetric(gen, 5)
    lam = eigs(M)
    assert abs(lam.sum() - np.trace(M)) < 1e-12 * (1 + abs(np.trace(M)))
    assert abs(np.prod(lam) - np.linalg.det(M)) < 1e-10 * (1 + abs(np.linalg.det(M)))


# -- elementary symmetric functions ----------------------------------------------


def test_elementary_symmetric_examples():
    # roots 1, 2, 3: e1 = 6, e2 = 11, e3 = 6
    np.testing.assert_allclose(
        elementary_symmetric(np.array([1.0, 2.0, 3.0]), 3), [6.0, 11.0, 6.0]
    )
    np.testing.assert_allclose(
        elementary_symmetric(np.array([[1.0, -1.0], [2.0, 2.0]]), 2),
        [[0.0, -1.0], [4.0, 4.0]],
    )
    with pytest.raises(ValueError):
        elementary_symmetric(np.array([1.0, 2.0]), 3)


# -- defining values --------------------------------------------------------------


def test_defining_value_trace_and_posdef():
    M = np.array([[2.0, 0.0], [0.0, -0.5]])
    assert rho_of(ConeSpec("trace"), M) == pytest.approx(1.5)
    assert rho_of(ConeSpec("posdef"), M) == pytest.approx(-0.5)
    assert rho_of(ConeSpec("posdef"), np.diag([1.0, 3.0])) == pytest.approx(1.0)


def test_defining_value_sigma_families():
    spec1 = ConeSpec("sigma_k", k=1)
    spec2 = ConeSpec("sigma_k", k=2)
    # diag(1, 1): sigma_1 = 2, sigma_2 = 1 -> rho_1 = 2, rho_2 = min(2, 1) = 1
    assert rho_of(spec1, np.eye(2)) == pytest.approx(2.0)
    assert rho_of(spec2, np.eye(2)) == pytest.approx(1.0)
    # diag(1, -1): sigma_1 = 0 -> boundary for k=1; sigma_2 = -1 -> rho_2 = -1
    ind = np.diag([1.0, -1.0])
    assert abs(rho_of(spec1, ind)) < 1e-12
    assert rho_of(spec2, ind) == pytest.approx(-1.0, abs=1e-12)
    # diag(4, 1): sigma_1 = 5, sigma_2 = 4 -> rho_2 = min(5, 2) = 2 (k-th roots)
    assert rho_of(spec2, np.diag([4.0, 1.0])) == pytest.approx(2.0)
    # first violated order wins the sign: diag(3, -1) has sigma_1 = 2 > 0,
    # sigma_2 = -3 < 0 -> rho = -sqrt(3)
    assert rho_of(spec2, np.diag([3.0, -1.0])) == pytest.approx(-np.sqrt(3.0))


def test_defining_value_sigma_k_is_one_homogeneous():
    gen = stream(33)
    spec = ConeSpec("sigma_k", k=2)
    for _ in range(40):
        M = random_symmetric(gen, 3)
        c = float(np.exp(gen.uniform(-3, 3)))
        rho = rho_of(spec, M)
        assert rho_of(spec, c * M) == pytest.approx(c * rho, abs=1e-10 * (1 + abs(rho) * c))


def test_defining_value_spectral():
    spec = ConeSpec("spectral", g="l1 + l2 - 1.0")
    assert rho_of(spec, np.diag([2.0, 3.0])) == pytest.approx(4.0)
    assert rho_of(spec, np.zeros((2, 2))) == pytest.approx(-1.0)
    # eigenvalues are passed in ascending order
    spec_min = ConeSpec("spectral", g="l1")
    assert rho_of(spec_min, np.diag([5.0, -2.0])) == pytest.approx(-2.0)


def test_values_from_eigenvalues_matches_defining_value():
    gen = stream(34)
    for family, kw in [
        ("trace", {}),
        ("posdef", {}),
        ("sigma_k", {"k": 2}),
        ("spectral", {"g": "min(l1, l3) + 0.1*l2"}),
    ]:
        spec = ConeSpec(family, **kw)
        Ms = np.stack([random_symmetric(gen, 3) for _ in range(20)])
        batch = newton_values(spec, entries(Ms))[0]
        lams = eigenvalues(Ms)
        np.testing.assert_allclose(values_from_eigenvalues(spec, lams), batch, atol=1e-12)


def test_defining_value_orthogonal_invariance():
    gen = stream(35)
    for spec in (ConeSpec("posdef"), ConeSpec("sigma_k", k=2), ConeSpec("trace")):
        for _ in range(10):
            M = random_symmetric(gen, 3)
            Q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
            rho = rho_of(spec, M)
            rot = rho_of(spec, Q @ M @ Q.T)
            assert rot == pytest.approx(rho, abs=1e-10 * (1 + abs(rho)))


def test_defining_value_monotone_under_identity_shift():
    # rho(M + c I) >= rho(M) for c >= 0 for trace and posdef everywhere, and
    # for sigma_k on the inside of the set (outside, the first violated order
    # can switch, so the two values are roots of different degree and not
    # comparable; membership itself is still monotone).
    gen = stream(36)
    for spec in (ConeSpec("trace"), ConeSpec("posdef")):
        for _ in range(25):
            M = random_symmetric(gen, 3)
            c = float(gen.uniform(0.0, 2.0))
            assert rho_of(spec, M + c * np.eye(3)) >= rho_of(spec, M) - 1e-10
    spec = ConeSpec("sigma_k", k=2)
    inside = 0
    for _ in range(120):
        M = random_symmetric(gen, 3)
        c = float(gen.uniform(0.0, 2.0))
        rho = rho_of(spec, M)
        if rho > 0:
            inside += 1
            assert rho_of(spec, M + c * np.eye(3)) >= rho - 1e-10
        elif rho < -1e-6:
            # once strictly inside, shifts never exit: find the entry point
            shift = M + 10.0 * (1 + np.abs(M).max()) * np.eye(3)
            assert rho_of(spec, shift) > 0
    assert inside > 10


# -- classification ----------------------------------------------------------------


def test_classify_examples():
    trace = ConeSpec("trace")
    assert code(trace, np.diag([1.0, 1.0])) == INTERIOR
    assert code(trace, np.diag([-1.0, -1.0])) == EXTERIOR
    assert code(trace, np.diag([1.0, -1.0])) == BOUNDARY
    assert code(trace, np.zeros((2, 2))) == BOUNDARY

    posdef = ConeSpec("posdef")
    assert code(posdef, np.diag([1.0, 0.5])) == INTERIOR
    assert code(posdef, np.diag([1.0, -0.5])) == EXTERIOR

    garding = ConeSpec("sigma_k", k=2)
    assert code(garding, np.diag([1.0, 1.0])) == INTERIOR
    assert code(garding, np.diag([1.0, -1.0])) == EXTERIOR
    assert code(garding, np.diag([1.0, 0.0])) == BOUNDARY


def test_classification_band_scales_with_matrix_norm():
    trace = ConeSpec("trace", tol=1e-9)
    # rho exactly at the band edge flips between Boundary and Interior
    big = 1e6
    M = np.diag([big, -big + 3.0 * 1e-9 * big])  # trace ~ 3e-9 * big > band
    assert code(trace, M) == INTERIOR
    M2 = np.diag([big, -big])
    assert code(trace, M2) == BOUNDARY


def test_classify_batch_matches_scalar():
    gen = stream(37)
    spec = ConeSpec("sigma_k", k=2)
    Ms = np.stack([random_symmetric(gen, 3) for _ in range(60)])
    codes = classify(spec, Ms)
    for i in range(60):
        assert code(spec, Ms[i]) == codes[i]


@pytest.mark.parametrize(
    "spec",
    [
        ConeSpec("trace"),
        ConeSpec("posdef"),
        ConeSpec("sigma_k", k=1),
        ConeSpec("sigma_k", k=2),
        ConeSpec("spectral", g="min(l1, l2) + 0.1*l2"),
    ],
    ids=["trace", "posdef", "sigma1", "sigma2", "spectral"],
)
def test_single_matrix_functions_agree_bit_for_bit_with_the_batch(spec):
    # a matrix gets the same bits alone (a stack of one) as inside a stack of
    # 1000, for sizes 2, 3 and 4: no result depends on the other matrices
    gen = stream(39)
    for d in (2, 3, 4):
        Ms = np.stack([random_symmetric(gen, d, scale=2.0) for _ in range(1000)])
        rho = newton_values(spec, entries(Ms))[0]
        codes = classify(spec, Ms)
        lams = eigenvalues(Ms)
        for i in range(Ms.shape[0]):
            assert rho_of(spec, Ms[i]) == rho[i]
            assert code(spec, Ms[i]) == codes[i]
            np.testing.assert_array_equal(eigs(Ms[i]), lams[i])


def test_defining_value_continuity_away_from_boundary():
    # small perturbations move rho by a small amount when rho is not tiny
    gen = stream(38)
    spec = ConeSpec("sigma_k", k=2)
    kept = 0
    for _ in range(200):
        M = random_symmetric(gen, 3)
        rho = rho_of(spec, M)
        if abs(rho) < 0.1:
            continue
        kept += 1
        E = random_symmetric(gen, 3, scale=1e-7)
        rho2 = rho_of(spec, M + E)
        assert abs(rho2 - rho) < 1e-3
    assert kept > 50


# -- axioms ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ConeSpec("trace"),
        ConeSpec("posdef"),
        ConeSpec("sigma_k", k=1),
        ConeSpec("sigma_k", k=2),
    ],
    ids=["trace", "posdef", "sigma1", "sigma2"],
)
def test_axioms_hold_for_builtin_families(spec):
    report = check_axioms(spec, 41, 400, 2)
    assert report.passed, report
    for cond in report.conditions:
        assert cond.violations == 0
        assert cond.checked > 0


def test_axioms_dimension_three():
    report = check_axioms(ConeSpec("sigma_k", k=2), 42, 200, 3)
    assert report.passed


def test_shifted_trace_set_is_not_a_cone():
    spec = shifted_trace_spec(2)
    report = check_axioms(spec, 43, 400, 2)
    assert not report.passed
    shrink = report.condition("scale_invariant_shrink")
    assert shrink.violations > 0
    w = shrink.witness
    assert w is not None and 0 < w["c"] < 1
    # the witness really leaves the set
    assert code(spec, w["c"] * np.array(w["A"])) != INTERIOR
    # positive-definite shifts alone cannot detect the defect
    assert report.condition("stable_under_definite_shift").violations == 0


def test_axiom_report_lookup_and_unknown_condition():
    report = check_axioms(ConeSpec("trace"), 44, 50, 2)
    assert report.condition("scale_invariant").passed
    with pytest.raises(KeyError):
        report.condition("nope")


def _state(gen):
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def test_sampler_draws_into_its_arrays_what_sized_draws_gave():
    # the sampler fills each sample's rows with standard_normal(out=) and
    # random(out=); the sized normal and random calls it replaced give the
    # same bytes and leave the generator in the same state, also for an
    # empty block of uniforms
    for seed in range(10):
        for d in (1, 2, 3, 4):
            for blocks in (1, 2):
                for m in (0, 1, 3, 4):
                    gen, ref = stream(seed), stream(seed)
                    normals, unif = np.empty((5, blocks, d, d)), np.empty((5, m))
                    want_normals, want_unif = np.empty_like(normals), np.empty_like(unif)
                    for s in range(5):
                        gen.standard_normal(out=normals[s])
                        gen.random(out=unif[s])
                        want_normals[s] = ref.normal(size=(blocks, d, d))
                        want_unif[s] = ref.random(m)
                    assert normals.tobytes() == want_normals.tobytes()
                    assert unif.tobytes() == want_unif.tobytes()
                    assert _state(gen) == _state(ref)


# the one-sample-at-a-time sampler that check_axioms replaced, kept as the
# reference for its draw order and outputs


_CONDITIONS = (
    "stable_under_definite_shift",
    "scale_invariant",
    "scale_invariant_shrink",
    "scale_invariant_expand",
)


def _scalar_interior(spec, gen, dim, scale, margin, tries=80):
    W = gen.normal(size=(dim, dim))
    A = 0.5 * (W + W.T) * scale
    step = max(1.0, scale)
    eye = np.eye(dim)
    for _ in range(tries):
        frob = np.sqrt(np.sum(A * A))
        if rho_of(spec, A) > margin * (1.0 + frob):
            return A
        A = A + step * eye
        step *= 1.5
    return None


def _scalar_record(cond, spec, M, context):
    cond["checked"] += 1
    region = code(spec, M)
    if region == INTERIOR:
        return
    cond["violations"] += 1
    if cond["witness"] is None:
        witness = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in context.items()}
        witness["tested"] = M.tolist()
        witness["classification"] = REGION_NAMES[region]
        cond["witness"] = witness


def _report_dict(report):
    """An AxiomReport laid out as :func:`_scalar_check_axioms` returns it."""
    return {"passed": report.passed, "skipped": report.skipped,
            "conditions": [{**dataclasses.asdict(c), "passed": c.passed}
                           for c in report.conditions]}


def _scalar_check_axioms(spec, seed, count, dim):
    gen = stream(seed)
    checks = {name: {"name": name, "checked": 0, "violations": 0, "witness": None}
              for name in _CONDITIONS}
    skipped = 0
    for _ in range(count):
        A = _scalar_interior(spec, gen, dim, 2.0, 1e-3)
        if A is None:
            # a skipped sample still draws its W2 and its four uniforms
            gen.normal(size=(dim, dim))
            gen.random(4)
            skipped += 1
            continue
        W = gen.normal(size=(dim, dim))
        B = W @ W.T + gen.uniform(0.05, 0.5) * 2.0 * np.eye(dim)
        _scalar_record(checks["stable_under_definite_shift"], spec, A + B, {"A": A, "B": B})
        c = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        _scalar_record(checks["scale_invariant"], spec, c * A, {"A": A, "c": c})
        c = float(gen.uniform(0.001, 0.999))
        _scalar_record(checks["scale_invariant_shrink"], spec, c * A, {"A": A, "c": c})
        c = 1.0 / float(gen.uniform(0.001, 0.999))
        _scalar_record(checks["scale_invariant_expand"], spec, c * A, {"A": A, "c": c})
    ordered = list(checks.values())
    for c in ordered:
        c["passed"] = c["violations"] == 0
    passed = all(c["passed"] for c in ordered) and skipped < count
    return {"passed": passed, "skipped": skipped, "conditions": ordered}


@pytest.mark.parametrize(
    "spec, seed, count, dim",
    [
        (ConeSpec("trace"), 51, 200, 2),
        (ConeSpec("posdef"), 52, 200, 2),
        (ConeSpec("sigma_k", k=1), 53, 200, 2),
        (ConeSpec("sigma_k", k=2), 54, 200, 2),
        (ConeSpec("sigma_k", k=2), 55, 120, 3),
        (shifted_trace_spec(2), 56, 200, 2),
    ],
    ids=["trace", "posdef", "sigma1", "sigma2", "sigma2_dim3", "shifted_trace"],
)
def test_check_axioms_matches_scalar_sampler(spec, seed, count, dim):
    report = check_axioms(spec, seed, count, dim)
    assert _report_dict(report) == _scalar_check_axioms(spec, seed, count, dim)


def test_check_axioms_matches_scalar_sampler_when_samples_skip_midstream():
    # l1 - l2 + 1 is invariant under the +I march, so a start either is
    # interior at once or never gets there: skips fall all through the stream
    spec = ConeSpec("spectral", g="l1 - l2 + 1")
    report = check_axioms(spec, 57, 150, 2)
    assert 0 < report.skipped < 150
    assert _report_dict(report) == _scalar_check_axioms(spec, 57, 150, 2)


def test_check_axioms_matches_scalar_sampler_when_every_sample_skips():
    spec = ConeSpec("spectral", g="0.0 - 1.0")
    report = check_axioms(spec, 58, 80, 2)
    assert report.skipped == 80 and not report.passed
    assert _report_dict(report) == _scalar_check_axioms(spec, 58, 80, 2)


# -- spec validation and JSON --------------------------------------------------------


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec("frobnicate")
    with pytest.raises(ValueError):
        ConeSpec("sigma_k")
    for k in (0, 2.9, True, "2"):
        with pytest.raises(ValueError, match="cone.k"):
            ConeSpec("sigma_k", k=k)
    assert ConeSpec("sigma_k", k=np.int64(2)).k == 2 == ConeSpec("sigma_k", k=2.0).k
    with pytest.raises(ValueError):
        ConeSpec("spectral")
    with pytest.raises(ValueError):
        ConeSpec("trace", tol=0.0)
    with pytest.raises(ValueError):
        rho_of(ConeSpec("sigma_k", k=5), np.eye(2))


def test_cone_json_round_trip():
    # a spec written as a problem file's cone object reads back the same
    problem = {
        "domain": {"n": 1, "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "resolution": [3, 3, 3],
        "operator": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0},
        "boundary": "x1",
        "bracket": {"scale": 0.1},
    }
    for spec in (
        ConeSpec("trace"),
        ConeSpec("posdef", tol=1e-8),
        ConeSpec("sigma_k", k=2),
        ConeSpec("spectral", g="l1 + l2 - 1.0"),
    ):
        cone = {"family": spec.family, "tol": spec.tol, "k": spec.k, "g": spec.g}
        back = problem_from_json(json.loads(json.dumps(dict(problem, cone=cone)))).cone
        assert back == spec
