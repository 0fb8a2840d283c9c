"""Layer rows of the envelope search, printed as one JSON object.

    PYTHONPATH=src python3 scripts/envelope_layers.py

Run from the root of a source checkout; it times the ``heisvisc`` on the
path.  Rows:

- ``search_ms_17``: one upper plus one lower envelope of the benchmark's
  seeded 17^3 field (``perfbench/workloads.py:envelope_input``), seeds 1-4,
  at eps 5 (wide) and 0.05 (narrow); best of three, in ms.
- ``roadmap_field_s``: one upper envelope of x1^2 - 0.5 y1^2 + 0.3 t +
  0.2 x1 t on [-1, 1]^3 at 21^3 and 41^3, eps 5 and 0.05; one run, in s.
- ``traced_peak_mb``: the ``tracemalloc`` peak of one upper envelope of the
  seed-1 field at eps 5, after a warm-up call, in MB.
- ``csv_ms_17``: ``read_grid_csv`` of the seed-1 field's CSV, and
  ``write_grid_csv`` and ``write_witness_csv`` of its upper envelope at
  eps 5, each to a fresh file; each the median of 21 runs in ms (``ms``),
  with their interquartile range (``iqr_ms``).
- ``read_traced_peak_mb``: the ``tracemalloc`` peak of one ``read_grid_csv``
  of the seed-1 17^3 field and of a seeded standard-normal 7^5 field on
  [-1, 1]^5, after a warm-up read, in MB.
"""

import itertools
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from heisvisc.envelopes import lower_envelope, upper_envelope
from heisvisc.fields import Domain, GridField, parse_field, sample
from heisvisc.gridio import read_grid_csv, write_grid_csv, write_witness_csv
from timing import seconds, timed_ms

sys.path.insert(0, "perfbench")
from workloads import EPS, envelope_input  # noqa: E402

ROADMAP_FIELD = "x1*x1 - 0.5*y1*y1 + 0.3*t + 0.2*x1*t"


def _traced_peak_mb(fn, *args):
    fn(*args)
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e6, 3)


def csv_rows(tmp):
    """The CSV I/O rows, from files in directory ``tmp``."""
    source = envelope_input(1, tmp)
    v = read_grid_csv(source)
    r = upper_envelope(v, EPS["wide"])
    fresh = (Path(tmp) / f"out_{k}.csv" for k in itertools.count())
    g5 = GridField(2, np.array([[-1.0, 1.0]] * 5),
                   np.random.default_rng(1).standard_normal((7,) * 5))
    write_grid_csv(g5, Path(tmp) / "field_7x5.csv")
    return {
        "csv_ms_17": {
            "read": timed_ms(lambda: read_grid_csv(source)),
            "write_grid": timed_ms(lambda: write_grid_csv(r.out, next(fresh))),
            "write_witness": timed_ms(lambda: write_witness_csv(r, next(fresh))),
        },
        "read_traced_peak_mb": {
            "17^3": _traced_peak_mb(read_grid_csv, source),
            "7^5": _traced_peak_mb(read_grid_csv, Path(tmp) / "field_7x5.csv"),
        },
    }


def main():
    rows = {"search_ms_17": {}, "roadmap_field_s": {}}
    with tempfile.TemporaryDirectory() as tmp:
        fields = {seed: read_grid_csv(envelope_input(seed, tmp)) for seed in (1, 2, 3, 4)}
        rows |= csv_rows(tmp)
    for seed, v in fields.items():
        rows["search_ms_17"][str(seed)] = {
            label: round(1e3 * min(
                seconds(lambda: (upper_envelope(v, eps), lower_envelope(v, eps)))
                for _ in range(3)), 1)
            for label, eps in EPS.items()
        }
    f = parse_field(ROADMAP_FIELD, 1)
    box = Domain(np.array([[-1.0, 1.0]] * 3))
    for res in (21, 41):
        g = sample(f, box, res)
        rows["roadmap_field_s"][str(res)] = {
            label: round(seconds(lambda: upper_envelope(g, eps)), 3)
            for label, eps in EPS.items()
        }
    rows["traced_peak_mb"] = _traced_peak_mb(upper_envelope, fields[1], EPS["wide"])
    print(json.dumps(rows, sort_keys=True))


if __name__ == "__main__":
    main()
