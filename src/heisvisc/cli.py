"""Command-line front end.

Subcommands: gauge, group, envelope, classify, check, compare, solve.
Results print as single JSON lines on stdout (`check` prints its indented
report); every JSON text and file output comes from :mod:`heisvisc.gridio`,
so a command rerun with the same inputs and seed is byte-identical.

Exit codes follow one contract everywhere: 0 success, 1 property or
convergence failure, 2 usage, I/O, or schema error.  A JSON config file
passed with --config supplies flag defaults, required flags included;
flags given on the command line win.  Config values pass the same type
and choice checks as flags.
"""

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .comparison import touching_harness
from .core import dist, gauge, group_inv, group_mul
from .envelopes import (
    check_semiconvexity,
    check_witness_bound,
    lower_envelope,
    upper_envelope,
)
from .gridio import (
    json_text,
    load_problem,
    read_grid_csv,
    read_json,
    write_classification_csv,
    write_grid_csv,
    write_residuals_csv,
    write_witness_csv,
)
from .perron import uniqueness_gap
from .suites import SUITE_NAMES, report_json, run_suite
from .viscosity import classify_grid

__all__ = ["main", "build_parser"]


def _print_json(obj):
    sys.stdout.write(json_text(obj))


# argparse takes an argument that starts with '-' for a flag unless it looks
# like a negative number, and before Python 3.13 that test passes one plain
# number only.  No flag here starts with '-' and a digit, so a coordinate
# list such as -0.5,0.25,7 can be read as the value it is.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _parse_point(text, n=None):
    try:
        coords = np.array([float(p) for p in text.split(",")])
    except ValueError as e:
        raise ValueError(f"malformed point {text!r}: {e}") from None
    if coords.size < 3 or coords.size % 2 == 0:
        raise ValueError(f"point needs 2n+1 coordinates, got {coords.size}")
    if n is not None and coords.size != 2 * n + 1:
        raise ValueError(f"point {text!r} has {coords.size} coordinates, expected {2 * n + 1}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("point coordinates must be finite")
    return coords


def _write_report(path, report):
    path.write_text(json_text(report, pretty=True), newline="\n")


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_gauge(args):
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    p = _parse_point(args.point, args.n)
    _print_json({"point": p.tolist(), "gauge": float(gauge(p))})
    return 0


def cmd_group(args):
    a = _parse_point(args.a)
    if args.op == "inv":
        _print_json({"op": "inv", "result": group_inv(a).tolist()})
        return 0
    if args.b is None:
        raise ValueError(f"group {args.op} needs --b")
    b = _parse_point(args.b, n=(a.size - 1) // 2)
    if args.op == "mul":
        _print_json({"op": "mul", "result": group_mul(a, b).tolist()})
    else:
        _print_json({"op": "dist", "result": float(dist(a, b))})
    return 0


def cmd_envelope(args):
    v = read_grid_csv(args.input)
    build = upper_envelope if args.mode == "upper" else lower_envelope
    r = build(v, args.eps)
    out = _out_dir(args)
    write_grid_csv(r.out, out / f"{args.prefix}_envelope.csv")
    write_witness_csv(r, out / f"{args.prefix}_witness.csv")

    wit = check_witness_bound(r, v)
    gap = r.out.values - v.values if args.mode == "upper" else v.values - r.out.values
    semi = check_semiconvexity(r)
    report = {
        "input": str(args.input),
        "eps": args.eps,
        "mode": args.mode,
        "checks": {
            "witness_identity": {
                "passed": bool(wit.passed),
                "identity_violations": int(wit.identity_violations),
                "reach_violations": int(wit.reach_violations),
            },
            "dominates_source": {
                "passed": bool(gap.min() >= 0.0),
                "worst": float(gap.min()),
            },
            "semiconvex_bound": {
                "passed": bool(semi.passed),
                "violations": int(semi.violations),
            },
        },
    }
    report["passed"] = all(c["passed"] for c in report["checks"].values())
    _write_report(out / f"{args.prefix}_report.json", report)
    _print_json({"passed": report["passed"], "out_dir": str(out)})
    return 0 if report["passed"] else 1


def cmd_classify(args):
    prob = load_problem(args.problem)
    out = _out_dir(args)
    summary = {}
    ok = True
    for tag, g, side, bad in (
        ("sub", prob.sub, "sub", "SubViolated"),
        ("sup", prob.sup, "super", "SuperViolated"),
    ):
        c = classify_grid(g, prob.spec, prob.cone, side=side)
        write_classification_csv(c, out / f"{tag}_classification.csv")
        summary[tag] = {"counts": {k: int(v) for k, v in c.counts.items()}}
        ok = ok and c.count(bad) == 0
    report = {"problem": str(args.problem), "passed": ok, "sides": summary}
    _write_report(out / "classify_report.json", report)
    _print_json({"passed": ok, "out_dir": str(out)})
    return 0 if ok else 1


def cmd_check(args):
    report = run_suite(args.suite, args.seed, count=args.count, tamper=args.tamper)
    text = report_json(report)
    if args.report is not None:
        Path(args.report).write_text(text, newline="\n")
    sys.stdout.write(text)
    return 0 if report.passed else 1


def cmd_compare(args):
    prob = load_problem(args.problem)
    rep = touching_harness(prob.sup, prob.sub, prob.spec, prob.cone)
    text = json_text(rep.to_dict())
    sys.stdout.write(text)
    if args.out_dir is not None:
        (_out_dir(args) / "compare_report.json").write_text(text, newline="\n")
    return 0 if rep.verdict == "CONSISTENT" else 1


def cmd_solve(args):
    prob = load_problem(args.problem)
    rep = uniqueness_gap(prob, tol=args.tol, max_iter=args.max_iter)
    out = _out_dir(args)
    report = {"problem": str(args.problem), "passed": rep.passed, "gap": rep.gap,
              "gap_tol": rep.tol}
    for side, res in rep.sides.items():
        (out / side).mkdir(exist_ok=True)
        write_grid_csv(res.u, out / side / "solution.csv")
        write_residuals_csv(res.residuals, out / side / "residuals.csv")
        report[side] = {
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "final_residual": float(res.final_residual),
            "held": int(res.held),
        }
    _write_report(out / "solve_report.json", report)
    _print_json({"passed": rep.passed, "gap": rep.gap, "out_dir": str(out)})
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heisvisc",
        description="Grid toolkit for fully nonlinear equations in the first Heisenberg groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None,
                       help="JSON file with default flag values (flags win)")
        return p

    p = add("gauge", cmd_gauge, "homogeneous gauge of a point")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--point", required=True, help="comma-separated coordinates")

    p = add("group", cmd_group, "group operations on points")
    p.add_argument("op", choices=("mul", "inv", "dist"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)

    p = add("envelope", cmd_envelope, "quartic-kernel envelope of a grid CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=("upper", "lower"), default="upper")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--prefix", default="field")

    p = add("classify", cmd_classify, "classify a problem's bracket pair")
    p.add_argument("--problem", required=True)
    p.add_argument("--out-dir", required=True)

    p = add("check", cmd_check, "run a packaged verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--tamper", action="store_true",
                   help="swap the deliberate non-cone into the cones suite")
    p.add_argument("--report", default=None, help="also write the JSON report here")

    p = add("compare", cmd_compare, "touching harness for a problem's bracket pair")
    p.add_argument("--problem", required=True)
    p.add_argument("--out-dir", default=None)

    p = add("solve", cmd_solve,
            "bracketed semismooth Newton solve of a problem JSON from both ends")
    p.add_argument("--problem", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100, help="Newton steps")

    return parser


def _config_value(key, action, value):
    """A config value converted and checked as the flag's own value would be."""
    if action.nargs == 0:   # an on/off switch
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a string or a number")
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"config key {key!r}: {value!r} is not one of {choices}")
    return value


def _install_config(parser, argv):
    """Install the chosen command's --config values as its flag defaults."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cmd = sub.choices.get(argv[0]) if argv else None
    if cmd is None:
        return   # the real parse reports a missing or unknown command
    pre = argparse.ArgumentParser(prog=cmd.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    data = {} if path is None else read_json(path, "config file")
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # positionals and --help cannot come from a config file
    flags = {a.dest: a for a in cmd._actions
             if a.option_strings and a.default is not argparse.SUPPRESS}
    for key, value in data.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of this command")
        # a flag on the command line, abbreviated or not, still wins the real parse
        action.default = _config_value(key, action, value)
        action.required = False


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _install_config(parser, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
