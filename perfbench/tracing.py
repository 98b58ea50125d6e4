"""In-memory span tracing of genshift's public functions, from outside.

The tracer replaces each traced function at every module attribute of the
``genshift`` package that refers to it (so ``gen_shift.fiber_report`` is
wrapped as well as ``index_domain.fiber_report``) and puts the originals
back on exit. No file of the library is edited.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the id of the benchmark operation
it belongs to. Self time is a span's duration minus the time its children
cover. Methods called millions of times are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs timed as spans; the span name is "module.function".
TIMED = (
    ("index_domain", "parse_map"),
    ("index_domain", "make_finite_map"),
    ("index_domain", "fiber_report"),
    ("sparse_vec", "from_entries"),
    ("sparse_vec", "parse_vector"),
    ("sparse_vec", "norm_sq"),
    ("sparse_vec", "vector_to_json"),
    ("gen_shift", "apply"),
    ("gen_shift", "apply_norm_sq"),
    ("gen_shift", "classify"),
    ("gen_shift", "operator_norm"),
    ("gen_shift", "solve"),
    ("domain_analysis", "in_domain"),
    ("domain_analysis", "domain_report"),
    ("domain_analysis", "fiber_records"),
    ("domain_analysis", "divergence_witness"),
    ("compact_witness", "witness_sequence"),
    ("dense_oracle", "to_dense"),
    ("dense_oracle", "spectral_norm"),
    ("dense_oracle", "structural_check"),
    ("dense_oracle", "check_map_agreement"),
)

# (module, class, method) triples that are only counted.
COUNTED = (
    ("index_domain", "IndexMap", "fiber_card"),
    ("index_domain", "IndexMap", "fiber"),
)

# The span the benchmark opens around each in-process CLI request.
CLI_MAIN = "cli.main"


class Tracer:
    """Collects spans and call counts while ``recording`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op = -1
        self.recording = True

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def paused(self):
        """Run library calls made by the benchmark's own checks unrecorded."""
        before = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = before

    def adopt(self, spans: list[list], parent: int) -> None:
        """Attach spans recorded in a child process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps are comparable with the parent's.
        """
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.op])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _timed(tracer: Tracer, name: str, fn):
    spans = tracer.spans
    stack = tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
        stack.append(idx)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            rec = spans[idx]
            rec[1] = start
            rec[2] = end

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.recording:
            counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function at each name the package looks it up by."""
    package = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "genshift" or name.startswith("genshift."))]
    undo = []
    try:
        for mod_name, fn_name in TIMED:
            original = getattr(importlib.import_module(f"genshift.{mod_name}"), fn_name)
            wrapper = _timed(tracer, f"{mod_name}.{fn_name}", original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in COUNTED:
            cls = getattr(importlib.import_module(f"genshift.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _counted(tracer, f"{mod_name}.{cls_name}.{meth}", original))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name: str) -> str:
    """The layer a span is charged to: its module, or "harness"/"import"."""
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> tuple[Counter, Counter]:
    """Per span name: total self time in seconds, and number of calls."""
    selfs = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), s in zip(spans, selfs):
        self_s[name] += s
        calls[name] += 1
    return self_s, calls


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in microseconds per module from ``-X importtime``."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = float(parts[1])
        except ValueError:
            continue  # the header line
        out.setdefault(parts[2].strip(), cumulative)
    return out
