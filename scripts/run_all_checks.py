"""Run every packaged verification suite and print a one-line summary each.

Equivalent to `heisvisc check --suite all` but with a per-suite progress
line and timing, which is friendlier for interactive use.  The suites run
once: the combined report written by --report is the one that run builds,
byte-identical to `heisvisc check --suite all`.  Exit code 0 iff every
suite passes.
"""

import argparse
import sys
import time

from heisvisc.suites import report_json, run_suite


class ProgressPool:
    """Serial executor for run_suite("all") that prints each member's line."""

    def map(self, fn, names):
        for name in names:
            t0 = time.time()
            rep = fn(name)
            elapsed = time.time() - t0
            bad = [c.name for c in rep.checks if not c.passed]
            status = "ok" if rep.passed else f"FAILED {bad}"
            print(f"{name:11s} {len(rep.checks):2d} checks  {elapsed:5.1f}s  {status}")
            yield rep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--count", type=int, default=None,
                    help="override the per-suite sample count")
    ap.add_argument("--report", default=None, help="write the combined JSON report here")
    args = ap.parse_args(argv)

    full = run_suite("all", args.seed, count=args.count, pool=ProgressPool())
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(report_json(full))
        print(f"wrote {args.report}")
    return 0 if full.passed else 1


if __name__ == "__main__":
    sys.exit(main())
