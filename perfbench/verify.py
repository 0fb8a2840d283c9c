"""Output checks of every task and a self-test of the checks themselves.

The checks run after each timed pass, so their cost stays out of
``wall_s``.  Each returns ``(failures, wrong)``: ``failures`` are the
reasons a task counts as failed; ``wrong`` is the subset where the library
accepted an output that is not right (a converged solve far from the exact
field, an envelope that breaks its witness identity, a file that does not
round-trip, a suite report that differs between passes).  A failure the
library itself reports, such as a solve that does not converge or two
starts that disagree, counts as failed but not as wrong.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from heisvisc import gridio

ERR_TOL = 1e-2          # largest interior |u - exact| accepted on a harmonic task
GAP_RULE = 1e-6         # gate 12: two-sided gap <= GAP_RULE * bracket width
OPTIMALITY_SAMPLES = 64  # envelope nodes whose maximum is recomputed by brute force


# ---------------------------------------------------------------------------
# solves


def solution_errors(u, v, w, exact):
    """What is wrong with a converged solution ``u`` of the bracket (v, w)."""
    errors = []
    if (u < v).any() or (u > w).any():
        errors.append("solution leaves the bracket")
    ring = np.ones(u.shape, dtype=bool)
    ring[(slice(1, -1),) * u.ndim] = False
    if not np.array_equal(u[ring], v[ring]):
        errors.append("solution moved the pinned boundary")
    if exact is not None:
        err = interior_error(u, exact)
        if not err <= ERR_TOL:
            errors.append(f"interior error {err:.3e} exceeds {ERR_TOL:g}")
    return errors


def interior_error(u, exact):
    inner = (slice(1, -1),) * u.ndim
    return float(np.abs(u[inner] - exact[inner]).max())


def two_sided_gap(outcome):
    """Largest |ascent - descent| over the bracket width, or None."""
    up, down = outcome.results["sub"], outcome.results["super"]
    if isinstance(up, Exception) or isinstance(down, Exception):
        return None
    width = float(np.abs(outcome.problem.sup.values - outcome.problem.sub.values).max())
    return float(np.abs(up.u.values - down.u.values).max()) / width


def verify_solve(outcome):
    failures, wrong = [], []
    v, w = outcome.problem.sub.values, outcome.problem.sup.values
    all_converged = True
    for start, res in outcome.results.items():
        if isinstance(res, Exception):
            failures.append(f"{start} start raised: {res}")
            all_converged = False
            continue
        if not res.converged:
            failures.append(f"{start} start did not converge in {res.iterations} sweeps")
            all_converged = False
            continue
        wrong += [f"{start} start: {e}" for e in solution_errors(res.u.values, v, w,
                                                                 outcome.case.exact)]
        if not np.array_equal(gridio.read_grid_csv(outcome.files[start]).values, res.u.values):
            wrong.append(f"{start} start: solution CSV does not round-trip")
    gap = two_sided_gap(outcome)
    if all_converged and gap is not None and gap > GAP_RULE:
        failures.append(f"two-sided gap {gap:.3e} of the bracket width exceeds {GAP_RULE:g}")
    return failures + wrong, wrong


# ---------------------------------------------------------------------------
# envelopes


def _quartic(a, b, n):
    # d(a, b)^4 from b^-1 a = (z_a - z_b, t_a - t_b + 2 sum(x_b y_a - y_b x_a))
    dz = a[..., : 2 * n] - b[..., : 2 * n]
    shear = (a[..., 2 * n] - b[..., 2 * n]
             + 2.0 * (b[..., :n] * a[..., n:2 * n] - b[..., n:2 * n] * a[..., :n]).sum(-1))
    zs = np.square(dz).sum(-1)
    return zs * zs + shear * shear


def envelope_errors(r, v, gen):
    """Witness identity, domination and sampled optimality of one envelope."""
    n = v.n
    coords = v.coords_full().reshape(-1, 2 * n + 1)
    vals = v.values.reshape(-1)
    out = r.out.values.reshape(-1)
    wit = r.witness.reshape(-1)
    sign = -1.0 if r.mode == "upper" else 1.0
    tol = 1e-9 * (1.0 + float(np.abs(vals).max()))
    errors = []
    recomputed = vals[wit] + sign * _quartic(coords, coords[wit], n) / r.eps
    bad = int((np.abs(recomputed - out) > tol).sum())
    if bad:
        errors.append(f"witness identity fails at {bad} nodes")
    if (sign * (out - vals) > 0.0).any():
        errors.append("envelope does not dominate the source")
    for i in gen.choice(len(vals), size=min(OPTIMALITY_SAMPLES, len(vals)), replace=False):
        scores = vals + sign * _quartic(coords[i], coords, n) / r.eps
        best = scores.max() if r.mode == "upper" else scores.min()
        if abs(best - out[i]) > tol:
            errors.append(f"node {int(i)} is not the extremum over all nodes")
            break
    return errors


def _witness_csv(path):
    lines = Path(path).read_text().splitlines()
    rows = lines[lines.index("node,witness") + 1:]
    return np.array([int(row.split(",")[1]) for row in rows])


def verify_envelope(outcome, seed):
    failures, wrong = [], []
    gen = np.random.default_rng(seed)
    for mode, r in outcome.results.items():
        failures += [f"{mode}: library check {name} failed"
                     for name, ok in outcome.reported[mode].items() if not ok]
        wrong += [f"{mode}: {e}" for e in envelope_errors(r, outcome.source, gen)]
        env_path, wit_path = outcome.files[mode]
        if not np.array_equal(gridio.read_grid_csv(env_path).values, r.out.values):
            wrong.append(f"{mode}: envelope CSV does not round-trip")
        if not np.array_equal(_witness_csv(wit_path), r.witness.reshape(-1)):
            wrong.append(f"{mode}: witness CSV does not round-trip")
    return failures + wrong, wrong


# ---------------------------------------------------------------------------
# suites


def byte_errors(text, reference):
    return [] if text == reference else ["check report is not byte-identical across passes"]


def verify_check(report, text, reference):
    failures = []
    if not report.passed:
        failures.append("check report did not pass: "
                        + ", ".join(c.name for c in report.checks if not c.passed))
    wrong = byte_errors(text, reference)
    return failures + wrong, wrong


# ---------------------------------------------------------------------------
# self-test: each check must catch a planted fault


def selftest_solve(case):
    """An exact harmonic field passes; the same field with one node moved fails."""
    exact = case.exact
    inner = (slice(1, -1),) * exact.ndim
    v, w = exact.copy(), exact.copy()
    v[inner] -= 1.0
    w[inner] += 1.0
    moved = exact.copy()
    moved[(exact.shape[0] // 2,) * exact.ndim] += 10.0 * ERR_TOL
    return not solution_errors(exact, v, w, exact) and bool(solution_errors(moved, v, w, exact))


def selftest_envelope(outcomes):
    """Pointing one node's witness at its worst candidate must break the identity.

    It needs an envelope the run computed; without one it fails.
    """
    if not outcomes:
        return False
    r = outcomes[0].results["upper"]
    v = outcomes[0].source
    vals = v.values.reshape(-1)
    coords = v.coords_full().reshape(-1, 2 * v.n + 1)
    worst = int(np.argmin(vals - _quartic(coords[0], coords, v.n) / r.eps))
    corrupted = r.witness.copy()
    corrupted.reshape(-1)[0] = worst
    bad = replace(r, witness=corrupted)
    gen = np.random.default_rng(0)
    return not envelope_errors(r, v, gen) and bool(envelope_errors(bad, v, gen))


def selftest_check(reference):
    """A report with one byte changed must fail the byte comparison."""
    i = len(reference) // 2
    changed = reference[:i] + chr(ord(reference[i]) ^ 1) + reference[i + 1:]
    return not byte_errors(reference, reference) and bool(byte_errors(changed, reference))
