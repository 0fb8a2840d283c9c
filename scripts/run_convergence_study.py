"""Solver accuracy study on the linear and translated-pole harmonic fields.

Solves the zero-coefficient trace problem for each boundary field over a
sequence of grid resolutions, prints max errors against the analytic
field, the observed convergence order between consecutive levels, the
Newton steps and Jacobian-vector products each solve spent, and its time.
Optionally writes the table as CSV.
"""

import argparse
import math
import sys
import time

import numpy as np

from heisvisc.cones import ConeSpec
from heisvisc.fields import Domain, parse_field, sample
from heisvisc.operators import OperatorSpec
from heisvisc.perron import Problem, bracket_from_boundary, solve

FIELDS = {
    "linear": "x1",
    "harmonic": "exp(-0.5*log((((x1 - 2.5)^2 + y1^2))^2 + (t + 5.0*y1)^2))",
}


def study(name, expr, resolutions, scale, tol):
    dom = Domain(np.array([[-1.0, 1.0]] * 3))
    g = parse_field(expr, 1)
    rows = []
    prev_err = None
    for r in resolutions:
        res = (r, r, r)
        v, w = bracket_from_boundary(g, dom, res, scale)
        prob = Problem(OperatorSpec(0.0, 0.0, 0.0), ConeSpec("trace"), g, v, w)
        t0 = time.perf_counter()
        sol = solve(prob, tol=tol)
        elapsed = time.perf_counter() - t0
        exact = sample(g, dom, res)
        inner = (slice(1, -1),) * 3
        err = float(np.abs(sol.u.values[inner] - exact.values[inner]).max())
        order = math.log2(prev_err / err) if prev_err else float("nan")
        prev_err = err
        rows.append((name, r, err, order, sol.iterations, sol.applies, elapsed))
        print(f"{name:9s} {r:3d}^3  err {err:.3e}  order {order:5.2f}  "
              f"steps {sol.iterations:3d}  applies {sol.applies:5d}  {elapsed:6.2f}s")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolutions", default="11,21,41",
                    help="comma-separated odd grid sizes per axis")
    ap.add_argument("--fields", default="linear,harmonic")
    ap.add_argument("--scale", type=float, default=0.3, help="bracket half-width factor")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--csv", default=None, help="write the table here")
    args = ap.parse_args(argv)

    resolutions = [int(r) for r in args.resolutions.split(",")]
    rows = []
    for name in args.fields.split(","):
        rows += study(name, FIELDS[name], resolutions, args.scale, args.tol)

    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            fh.write("field,res,max_error,order,steps,applies,seconds\n")
            for name, r, err, order, steps, applies, elapsed in rows:
                fh.write(f"{name},{r},{err!r},{order!r},{steps},{applies},{elapsed:.2f}\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
