"""Envelope demo on the constant and spike fixtures.

Computes upper/lower envelopes over a ladder of eps values, runs the
witness/semiconvexity/monotonicity property checks, and writes the grid
and witness CSVs.  With --golden-dir it instead rewrites the byte-stable
fixture files the test suite compares against (constant upper/lower and
spike upper at eps 0.5).
"""

import argparse
import sys
from pathlib import Path

from heisvisc.envelopes import (
    check_monotone_convergence,
    check_semiconvexity,
    check_witness_bound,
    lower_envelope,
    upper_envelope,
)
from heisvisc.gridio import write_grid_csv, write_witness_csv
from heisvisc.suites import envelope_fixtures


def regenerate_goldens(golden_dir):
    fx = envelope_fixtures()
    spike_upper = upper_envelope(fx["spike"], 0.5)
    files = {
        "constant_upper_envelope.csv": (write_grid_csv, upper_envelope(fx["constant"], 0.5).out),
        "constant_lower_envelope.csv": (write_grid_csv, lower_envelope(fx["constant"], 0.5).out),
        "spike_upper_envelope.csv": (write_grid_csv, spike_upper.out),
        "spike_upper_witness.csv": (write_witness_csv, spike_upper),
    }
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name, (write, obj) in files.items():
        write(obj, golden_dir / name)
        print(f"wrote {golden_dir / name}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", default="1.0,0.5,0.25")
    ap.add_argument("--out-dir", default="envelope_demo_out")
    ap.add_argument("--golden-dir", default=None,
                    help="rewrite the test-suite golden files into this directory and exit")
    args = ap.parse_args(argv)

    if args.golden_dir is not None:
        regenerate_goldens(Path(args.golden_dir))
        return 0

    eps_list = [float(e) for e in args.eps.split(",")]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = False
    for tag, v in envelope_fixtures().items():
        for mode, build in (("upper", upper_envelope), ("lower", lower_envelope)):
            results = [build(v, eps) for eps in eps_list]
            r = results[len(eps_list) // 2]
            write_grid_csv(r.out, out / f"{tag}_{mode}_envelope.csv")
            write_witness_csv(r, out / f"{tag}_{mode}_witness.csv")
            wit = check_witness_bound(r, v)
            semi = check_semiconvexity(r)
            mono = check_monotone_convergence(results, v)
            ok = wit.passed and semi.passed and mono.passed
            failed = failed or not ok
            print(f"{tag:9s} {mode:5s} eps {r.eps:4.2f}  witness {wit.passed}  "
                  f"semiconvex {semi.passed}  monotone {mono.passed}")
    print(f"outputs in {out}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
