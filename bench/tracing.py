"""Spans around the public functions of levitherm, recorded from outside.

`Tracer.install()` replaces every public module-level function of the
traced modules with a timing wrapper, wherever the function object is
bound inside the `levitherm` package: `thermo` imports `simulate` by name
and `kramers` imports `simulate_double_well` by name, so those copies are
wrapped as well.  `uninstall()` puts the originals back.

Each call becomes a span (name, parent, start, end) kept in memory.  The
self time of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
Call arguments and return values also feed a few exact counters.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

TRACED_MODULES = ("langevin", "analysis", "thermo", "kramers", "environment")


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _nbytes(obj) -> int:
    """Bytes of the numpy arrays held by a returned record."""
    total = 0
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    for value in fields:
        if hasattr(value, "nbytes"):
            total += int(value.nbytes)
        elif isinstance(value, dict):
            total += sum(int(v.nbytes) for v in value.values()
                         if hasattr(v, "nbytes"))
    return total


def _count_integrator(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["langevin.traj_steps"] += int(a["n_traj"]) * int(
        round(a["duration"] / a["dt"]))
    counts["langevin.bytes_recorded"] += _nbytes(result)


def _count_streams(counts, fn, args, kwargs, result):
    counts["langevin.streams"] += int(_bound(fn, args, kwargs)["n_traj"])


def _count_psd(counts, fn, args, kwargs, result):
    counts["analysis.psd.fft_len"] = max(counts["analysis.psd.fft_len"],
                                         len(result.omega))


def _count_turnover(counts, fn, args, kwargs, result):
    counts["kramers.turnover_rate.calls"] += 1


def _count_mc(counts, fn, args, kwargs, result):
    counts["kramers.hops"] += int(result[1])


COUNTERS = {
    "langevin.simulate": _count_integrator,
    "langevin.simulate_energy_sde": _count_integrator,
    "langevin.trajectory_streams": _count_streams,
    "analysis.psd": _count_psd,
    "kramers.turnover_rate": _count_turnover,
    "kramers.monte_carlo_rate": _count_mc,
}

COUNT_NAMES = ("langevin.traj_steps", "langevin.streams",
               "langevin.bytes_recorded", "analysis.psd.fft_len",
               "kramers.turnover_rate.calls", "kramers.hops")


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []            # [pass, name, parent index, start, end]
        self.counts = []           # one defaultdict(int) per traced pass
        self._stack = []
        self._patched = []         # (module, attribute, original)
        self._pass = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts[-1], fn, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every public function of TRACED_MODULES where it is bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"levitherm.{short}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "levitherm"
                                   or mod_name.startswith("levitherm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def begin_pass(self, pass_id: int):
        self._pass = pass_id
        self.counts.append(defaultdict(int))

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._pass, name, parent, time.perf_counter(),
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record one span around a block (used around CLI calls)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- reduction --------------------------------------------------------

    def self_times(self, pass_id: int) -> dict:
        """Self time per span name, summed over the spans of one pass."""
        child = defaultdict(float)
        for p, _, parent, start, end in self.spans:
            if p == pass_id and parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for idx, (p, name, _, start, end) in enumerate(self.spans):
            if p == pass_id:
                totals[name] += (end - start) - child[idx]
        return totals

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for idx, (p, name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": idx, "pass": p, "name": name,
                    "parent": parent if parent >= 0 else None,
                    "start_s": start - self.t0, "end_s": end - self.t0,
                }) + "\n")
