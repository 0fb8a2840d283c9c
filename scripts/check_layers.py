"""Layer rows of ``check --suite all --seed 42``, printed as one JSON object.

    PYTHONPATH=src python3 scripts/check_layers.py

Run from the root of a source checkout; it times the ``heisvisc`` on the
path.  Rows:

- ``suite_ms``: each member suite of ``all`` run in process at seed 42 with
  its default count, after a warm-up run; the median of 21 runs in ms
  (``ms``), with their interquartile range (``iqr_ms``).
- ``searches``: the three searches and the cone-axiom sampler inside one
  in-process ``all`` run, each timed by wrapping the module-level function
  that does its work, so the same rows read alike on any version of the
  code that keeps those names; calls and sizes come from one run, ``ms``
  and ``iqr_ms`` are the median and interquartile range of 21 runs:
  - ``lemma35_spectrum``: the eigenvalue calls of the lemma35 gain searches
    (``comparison.spectrum``), with the matrices they took;
  - ``keylemma_certificate``: ``key_lemma_certificate`` less its envelope
    searches, which is mostly its bisection for the smallest sufficient a,
    with the shifted nodes it classified (``viscosity.values_from_eigenvalues``);
  - ``envelope_search``: every envelope search of the run
    (``envelopes._envelope``), keylemma's included;
  - ``cones_sampler``: the axiom sampler's draws and marches to the
    interior (``cones._sample_interior``), with the samples it drew,
    interior and skipped.
- ``cli_s``: the whole CLI process ``python -m heisvisc check --suite all
  --seed 42``, imports included, its report discarded; best of three, in s.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

from heisvisc import comparison, cones, envelopes, suites, viscosity
from heisvisc.suites import SUITE_NAMES, run_suite
from timing import RUNS, median_ms, seconds, timed_ms

SEED = 42


@contextmanager
def _timed(module, name, tally, size=None):
    """Replace ``module.name`` by a wrapper adding its calls, seconds and
    ``size(result)`` to ``tally``; the original is put back on exit."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        tally["s"] += time.perf_counter() - start
        tally["calls"] += 1
        if size is not None:
            tally["size"] += size(result)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _search_tallies():
    """Tallies of the three searches and the sampler over one in-process
    ``all`` run."""
    lemma35, certificate, shifted, envelope, sampler = (
        {"s": 0.0, "calls": 0, "size": 0} for _ in range(5))
    with _timed(envelopes, "_envelope", envelope), \
            _timed(cones, "_sample_interior", sampler, lambda r: len(r[0]) + r[2]):
        # the certificate's own envelope searches are taken out of its time
        with _timed(suites, "key_lemma_certificate", certificate), \
                _timed(viscosity, "values_from_eigenvalues", shifted, len):
            run_suite("keylemma", SEED)
        certificate["s"] -= envelope["s"]
        with _timed(comparison, "spectrum", lemma35, len):
            run_suite("lemma35", SEED)
        for name in SUITE_NAMES:
            if name not in ("all", "keylemma", "lemma35"):
                run_suite(name, SEED)
    return {
        "lemma35_spectrum": {"calls": lemma35["calls"], "matrices": lemma35["size"],
                             "s": lemma35["s"]},
        "keylemma_certificate": {"calls": certificate["calls"],
                                 "shifted_nodes": shifted["size"], "s": certificate["s"]},
        "envelope_search": {"calls": envelope["calls"], "s": envelope["s"]},
        "cones_sampler": {"calls": sampler["calls"], "samples": sampler["size"],
                          "s": sampler["s"]},
    }


def main():
    rows = {"suite_ms": {}}
    for name in SUITE_NAMES:
        if name == "all":
            continue
        run_suite(name, SEED)
        rows["suite_ms"][name] = timed_ms(lambda: run_suite(name, SEED))
    runs = [_search_tallies() for _ in range(RUNS)]
    rows["searches"] = {
        key: {k: v for k, v in runs[0][key].items() if k != "s"}
        | median_ms([run[key]["s"] for run in runs])
        for key in runs[0]
    }
    argv = [sys.executable, "-m", "heisvisc", "check", "--suite", "all", "--seed", str(SEED)]
    rows["cli_s"] = round(min(
        seconds(lambda: subprocess.run(argv, stdout=subprocess.DEVNULL, check=True))
        for _ in range(3)), 3)
    print(json.dumps(rows, sort_keys=True))


if __name__ == "__main__":
    main()
