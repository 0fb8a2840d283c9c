"""Layer rows of ``check --suite all --seed 42``, printed as one JSON object.

    PYTHONPATH=src python3 scripts/check_layers.py

Run from the root of a source checkout; it times the ``heisvisc`` on the
path.  Rows:

- ``suite_ms``: each member suite of ``all`` run in process at seed 42 with
  its default count, after a warm-up run; best of five, in ms.
- ``cli_s``: the whole CLI process ``python -m heisvisc check --suite all
  --seed 42``, imports included, its report discarded; best of three, in s.
"""

import json
import subprocess
import sys
import time

from heisvisc.suites import SUITE_NAMES, run_suite

SEED = 42


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    rows = {"suite_ms": {}}
    for name in SUITE_NAMES:
        if name == "all":
            continue
        run_suite(name, SEED)
        rows["suite_ms"][name] = round(
            1e3 * min(_seconds(lambda: run_suite(name, SEED)) for _ in range(5)), 1)
    argv = [sys.executable, "-m", "heisvisc", "check", "--suite", "all", "--seed", str(SEED)]
    rows["cli_s"] = round(min(
        _seconds(lambda: subprocess.run(argv, stdout=subprocess.DEVNULL, check=True))
        for _ in range(3)), 3)
    print(json.dumps(rows, sort_keys=True))


if __name__ == "__main__":
    main()
