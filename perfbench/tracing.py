"""Spans around the benchmark's calls into the library's public functions.

A span records its name, start, end, parent span and task id.  Spans stay
in memory while the pass runs and are written out when the run ends.  The
untraced pass uses :class:`NullTracer`, which calls straight through, so the
end-to-end numbers carry no tracing cost.
"""

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class TaskError:
    """Outcome of a task that raised; the task still counts its time."""

    task: str
    error: Exception


class NullTracer:
    """Calls straight through; used for every untraced pass.

    It keeps only the wall time of each task, one clock read per task.  A
    task that raises returns a :class:`TaskError`, so the pass goes on.
    """

    enabled = False

    def __init__(self):
        self.task = None
        self.task_s = {}

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def run_task(self, task, fn, *args, **kwargs):
        self.task = task
        t0 = time.perf_counter()
        try:
            return self.call("task", fn, *args, **kwargs)
        except Exception as e:
            return TaskError(task, e)
        finally:
            self.task_s[task] = time.perf_counter() - t0


class Tracer(NullTracer):
    """Keeps one span per :meth:`call`, nested by the call stack."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "task": self.task, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in self.spans}

    def total(self, prefix, task_prefix=""):
        """Summed duration of spans whose name and task start with the prefixes."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"].startswith(prefix) and (s["task"] or "").startswith(task_prefix)
        )

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        selfs = self.self_times()
        with open(path, "w", newline="\n") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - t0, end=s["end"] - t0, self=selfs[s["id"]])
                fh.write(json.dumps(row, sort_keys=True) + "\n")
