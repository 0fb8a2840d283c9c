"""Rewrite the envelope golden files the test suite compares against.

Writes the byte-stable constant upper/lower and spike upper envelopes at
eps 0.5, with the spike's witness map, into --golden-dir.  The property
checks on the same fixtures are `heisvisc check --suite envelopes`.

    python scripts/run_envelope_demo.py --golden-dir tests/golden
"""

import argparse
import sys
from pathlib import Path

from heisvisc.envelopes import lower_envelope, upper_envelope
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
    ap.add_argument("--golden-dir", required=True,
                    help="directory to write the test-suite golden files into")
    regenerate_goldens(Path(ap.parse_args(argv).golden_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
