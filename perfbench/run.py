"""heisvisc benchmark: one closed-loop client running a seeded workload.

    python3 perfbench/run.py --workload solve-h1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The process sets up three times (``setup_s`` is the median of a
fresh interpreter's import plus input generation and warm-up), runs passes
over the workload's task list back to back until ``--seconds`` is spent
while a speed probe samples the host (``wall_rel`` is the median pass time
over the pass's mean probe time; see speedprobe.py), checks every output
after each pass, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
it runs one more pass with a span around every library call and prints the
per-layer metrics instead; the spans go to ``.perfbench_out/``.  The line
before the result holds the run record: exact work counts and the
environment.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# what a user's process imports before its first command: the CLI and, through
# it, every layer with numpy and scipy
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import heisvisc.cli"

if not (ROOT / "src" / "heisvisc").is_dir():
    sys.exit(f"error: no library source at {ROOT / 'src' / 'heisvisc'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import scipy

    import speedprobe
    import tracing
    import verify
    import workloads as wl
except ImportError as e:
    sys.exit(f"error: cannot import the library from {ROOT / 'src'}: {e}")

IMPORT_S = time.perf_counter() - T_START


def fresh_import_s():
    """Wall time for a new interpreter to start and import the library.

    The run's own import happens once; timing it again in a child process
    lets set-up be repeated and its median reported.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one pass, output checks and per-layer metrics of a workload."""

    min_passes = 1

    def __init__(self, name, seed):
        self.name, self.seed = name, seed


class SolveWorkload(Workload):
    def setup(self, work):
        warm = wl.solve_cases(self.name, self.seed, warmup=True)
        self._pass(tracing.NullTracer(), warm, work / "warmup")
        self.cases = wl.solve_cases(self.name, self.seed)

    def run_pass(self, tr, pass_dir):
        return self._pass(tr, self.cases, pass_dir)

    @staticmethod
    def _pass(tr, cases, pass_dir):
        outcomes = []
        for case in cases:
            task_dir = pass_dir / case.name
            task_dir.mkdir(parents=True)
            outcomes.append(tr.run_task(case.name, wl.solve_task, tr, case, task_dir))
        return outcomes

    def verify(self, outcome):
        return outcome.case.name, verify.verify_solve(outcome)

    def selftest(self, outcomes):
        return verify.selftest_solve(next(c for c in self.cases if c.exact is not None))

    def counts(self, outcomes):
        return {
            "interior_nodes": {o.case.name: o.case.interior_nodes for o in outcomes},
            "sweeps": {f"{o.case.name}.{start}": _iterations(res)
                       for o in outcomes for start, res in o.results.items()},
        }

    def layers(self, tr, outcomes):
        results = [(o, res) for o in outcomes for res in o.results.values()
                   if not isinstance(res, Exception)]
        starts = 2 * len(self.cases)
        m = {
            "perron.solve_s": tr.total("perron.solve"),
            "perron.sweeps": sum(res.iterations for _, res in results),
            "perron.problem_s": tr.total("perron.Problem"),
            "perron.bracket_s": tr.total("perron.bracket_from_boundary"),
            "perron.converged_frac": sum(res.converged for _, res in results) / starts,
            "perron.gap_rel_max": max((g for g in map(verify.two_sided_gap, outcomes)
                                       if g is not None), default=0.0),
            "perron.clamp_held_frac": _held(results),
            "perron.err_interior": max(
                (verify.interior_error(res.u.values, o.case.exact) for o, res in results
                 if o.case.exact is not None and res.converged), default=0.0),
            "viscosity.classify_s": tr.total("viscosity.classify_grid"),
            "comparison.touching_s": tr.total("comparison.touching_harness"),
        }
        for o in outcomes:
            node_sweeps = o.case.interior_nodes * sum(
                _iterations(res) for res in o.results.values())
            if node_sweeps:
                m[f"perron.node_sweep_us.{o.case.family}"] = (
                    1e6 * tr.total("perron.solve", o.case.name) / node_sweeps)
        return m


def _iterations(res):
    return 0 if isinstance(res, Exception) else int(res.iterations)


def _held(results):
    held = total = 0
    for o, res in results:
        inner = (slice(1, -1),) * res.u.values.ndim
        u = res.u.values[inner]
        held += int(((u == o.problem.sub.values[inner]) | (u == o.problem.sup.values[inner])).sum())
        total += u.size
    return held / total if total else 0.0


class EnvelopeWorkload(Workload):
    def setup(self, work):
        warm = wl.envelope_input(self.seed, work, res=wl.WARMUP_RES)
        tr = tracing.NullTracer()
        for label in wl.EPS:
            tr.run_task(label, wl.envelope_task, tr, label, warm, _fresh(work / "warmup" / label))
        self.csv = wl.envelope_input(self.seed, work)

    def run_pass(self, tr, pass_dir):
        outcomes = []
        for label in wl.EPS:
            task_dir = pass_dir / label
            task_dir.mkdir(parents=True)
            outcomes.append(tr.run_task(label, wl.envelope_task, tr, label, self.csv, task_dir))
        return outcomes

    def verify(self, outcome):
        return outcome.label, verify.verify_envelope(outcome, self.seed)

    def selftest(self, outcomes):
        return verify.selftest_envelope(outcomes)

    def counts(self, outcomes):
        return {"nodes": {o.label: int(o.source.values.size) for o in outcomes},
                "pairs_scored": _pairs(outcomes)}

    def layers(self, tr, outcomes):
        m = {
            "envelopes.pairs_scored": _pairs(outcomes),
            "envelopes.semiconvexity_s": tr.total("envelopes.check_semiconvexity"),
            "envelopes.witness_s": tr.total("envelopes.check_witness_bound"),
        }
        for o in outcomes:
            m[f"envelopes.search_s.{o.label}"] = (tr.total("envelopes.upper_envelope", o.label)
                                                  + tr.total("envelopes.lower_envelope", o.label))
            m[f"envelopes.window_frac.{o.label}"] = wl.window_fraction(o.source, wl.EPS[o.label])
        return m


def _pairs(outcomes):
    # every envelope call scores all N^2 node pairs before masking
    return sum(len(o.results) * int(o.source.values.size) ** 2 for o in outcomes)


class CheckWorkload(Workload):
    min_passes = 2   # the byte-identity check needs two passes
    reference = None

    def setup(self, work):
        wl.check_warmup(tracing.NullTracer(), self.seed)

    def run_pass(self, tr, pass_dir):
        return [tr.run_task("check", wl.check_task, tr, self.seed)]

    def verify(self, outcome):
        report, text = outcome
        if self.reference is None:
            self.reference = text
        return "check", verify.verify_check(report, text, self.reference)

    def selftest(self, outcomes):
        # with no report from this run, the byte check is tested on a stand-in text
        return verify.selftest_check(self.reference or "{}\n")

    @staticmethod
    def _checked(outcomes, suite=None):
        # samples checked by the pass's report; 0 when the check raised
        return wl.suite_checked(outcomes[0][0], suite) if outcomes else 0

    def counts(self, outcomes):
        return {"samples_checked": self._checked(outcomes),
                "checks": len(outcomes[0][0].checks) if outcomes else 0}

    def layers(self, tr, outcomes):
        m = {f"suites.{name}_s": tr.total("suites.run_suite", f"check.{name}")
             for name in wl.SUITE_MEMBERS}
        m["suites.checked"] = self._checked(outcomes)
        cones = self._checked(outcomes, "cones")
        m["cones.axiom_us"] = 1e6 * m["suites.cones_s"] / cones if cones else 0.0
        return m


WORKLOADS = {"solve-h1": SolveWorkload, "solve-h2": SolveWorkload,
             "envelope": EnvelopeWorkload, "check": CheckWorkload}


# ---------------------------------------------------------------------------
# run


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _gridio_layers(tr, pass_dir, read_file):
    # the pass directory holds exactly the files the pass wrote
    written = [p for p in pass_dir.rglob("*") if p.is_file()]
    reads = sum(s["name"].startswith("gridio.read_") for s in tr.spans)
    return {
        "gridio.read_s": tr.total("gridio.read_"),
        "gridio.read_bytes": reads * os.path.getsize(read_file) if reads else 0,
        "gridio.write_s": tr.total("gridio.write_"),
        "gridio.write_bytes": sum(os.path.getsize(p) for p in written),
    }


def _environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HEISVISC_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "env": {k: os.environ.get(k) for k in threads},
    }


def _metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description="heisvisc benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    end_to_end, per_layer = _metric_spec()

    wk = WORKLOADS[args.workload](args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = fresh_import_s()
            t0 = time.perf_counter()
            wk.setup(_fresh(work / "setup"))
            setups.append(imported + time.perf_counter() - t0)

        attempted, failed, failures, wrong = 0, 0, [], []

        task_s, probe_mean_s = [], []
        probe = speedprobe.SpeedProbe()

        def checked_pass(tr, pass_dir, probed=False):
            """Run and check one pass; returns its outputs, wall time and elapsed time.

            A probed pass samples the host's speed; the probes' time is taken
            out of its wall time.
            """
            nonlocal attempted, failed
            if probed:
                probe.start()   # takes the first probe before the clock starts
            t0 = time.perf_counter()
            try:
                outcomes = wk.run_pass(tr, pass_dir)
            finally:
                probes = probe.stop() if probed else []
            elapsed = time.perf_counter() - t0
            if probes:
                probe_mean_s.append(statistics.fmean(probes))
            task_s.append(tr.task_s)
            for o in outcomes:
                if isinstance(o, tracing.TaskError):
                    task, (fails, bad) = o.task, ([f"raised {o.error!r}"], [])
                else:
                    task, (fails, bad) = wk.verify(o)
                attempted += 1
                failed += bool(fails)
                failures.extend(f"{task}: {f}" for f in fails)
                wrong.extend(f"{task}: {b}" for b in bad)
            # later steps read only the outputs of tasks that returned
            return ([o for o in outcomes if not isinstance(o, tracing.TaskError)],
                    elapsed - sum(probes[1:]), elapsed)

        walls, durations = [], []
        begin = time.perf_counter()
        while True:
            outcomes, wall, elapsed = checked_pass(tracing.NullTracer(), _fresh(work / "pass"),
                                                   probed=True)
            walls.append(wall)
            durations.append(elapsed)
            spent = time.perf_counter() - begin
            if len(walls) >= wk.min_passes and spent + statistics.median(durations) > args.seconds:
                break
        wall_s = statistics.median(walls)
        wall_rel = statistics.median(w / p for w, p in zip(walls, probe_mean_s))

        record = {"environment": _environment(args), "passes": len(walls),
                  "pass_wall_s": walls, "task_s": task_s, "pass_probe_mean_s": probe_mean_s,
                  "setup_repeats_s": setups,
                  "import_s": IMPORT_S}
        if args.trace:
            tr = tracing.Tracer()
            pass_dir = _fresh(work / "pass")
            outcomes, traced_wall, _ = checked_pass(tr, pass_dir)
            layers = wk.layers(tr, outcomes)
            layers.update(_gridio_layers(tr, pass_dir, getattr(wk, "csv", None)))
            layers.update(wall_s=wall_s, probe_us=1e6 * statistics.median(probe_mean_s),
                          trace_overhead_s=traced_wall - wall_s)
            record["traced_wall_s"] = traced_wall
            tr.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            values = {name: layers.get(name, 0.0) for name in per_layer}
            units = per_layer
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_rel": wall_rel,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": 1.0 - failed / attempted,
            }
            units = end_to_end
        selftest_ok = wk.selftest(outcomes)
        record["counts"] = wk.counts(outcomes)
        record["failures"] = failures
        record["wrong"] = wrong
        record["selftest_passed"] = selftest_ok
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = json.dumps({"record": record}, sort_keys=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-record.json").write_text(line + "\n")
    print(line)
    result = {
        "correct": bool(selftest_ok and not wrong),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
