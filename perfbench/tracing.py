"""Spans recorded from outside the library, and the traced-run collectors.

A span is (id, parent id, run id, name, start, end), kept in memory and
written out as JSON lines when the workload process ends.  Start and end
come from the recorder's clock: the workload process passes one that leaves
out the host-speed calibration units (``hostspeed.py``).  Run ids tell the
set-up ("setup") apart from each timed pass ("pass-<n>").

The bulk engine is traced without touching its code: ``ProbeCollector`` is
put in front of the workload's own collectors and calls, on every shell, the
``ShellData`` accessors those collectors are about to call, in their order,
each inside its own span.  The accessors cache their results, so the real
collectors then run on cached kernels and the traced pass does the same
work as the untraced one.  ``TimedCollector`` wraps each real collector to
time its ``update`` and ``merge``.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class Recorder:
    """In-memory span store; a disabled recorder records nothing."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.run_id, name,
               self.clock(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = self.clock()
            self._stack.pop()

    def count(self, name: str, n: int):
        if self.enabled:
            key = f"{self.run_id}/{name}"
            self.counts[key] = self.counts.get(key, 0) + int(n)

    def patch(self, module, attr: str, name: str, counted=None):
        """Replace ``module.attr`` by a traced wrapper until ``unpatch``.

        Used for public functions the library calls internally through its
        module globals, so their time shows as a child span of the caller.
        ``counted`` is an optional (count name, result -> int) pair.
        """
        if not self.enabled:
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counted is not None:
                self.count(counted[0], counted[1](result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, run_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run_id, "name": name,
                                     "start": start, "end": end}) + "\n")


# ShellData accessors each collector calls, in its call order, mapped to the
# layer they are timed under.  membership_mask computes the twisted tops, so
# bo_data afterwards runs with cached tops.
_ACCESSORS = {
    "cartan": ("bulk.cartan", lambda s: s.cartan_coords()),
    "twisted": ("bulk.twisted", lambda s: s.membership_mask()),
    "bo": ("bulk.bo", lambda s: s.bo_data()),
    "jordan": ("bulk.jordan", lambda s: s.jordan_coords()),
    "attractor": ("bulk.attractor", lambda s: s.attractor_signs()),
    "ranks": ("bulk.ranks", lambda s: (s.ranks(), s.inverse_ranks())),
}


def accessors_for(cls_name: str, kwargs: dict, length: int) -> list[str]:
    """Accessor keys one collector uses on a shell of the given length."""
    if cls_name == "FunctionalHistCollector":
        return {"norm_at": ["cartan"], "norm_bo": ["twisted", "bo"], "phi_bo": ["twisted", "bo"],
                "phi_lambda": ["jordan"]}[kwargs["kind"]]
    if cls_name == "ComparisonCollector":
        return ["twisted", "bo", "ranks", "attractor", "cartan"] if length <= kwargs["length_max"] else []
    if cls_name == "DirectionsCollector":
        inside = kwargs["length_min"] <= length <= kwargs["length_max"]
        return ["ranks", "cartan", "twisted", "bo"] if inside else []
    raise ValueError(f"no accessor map for collector {cls_name}")


class ProbeCollector:
    """Primes and times the kernels of the collectors that follow it."""

    def __init__(self, recorder: Recorder, specs):
        self.recorder = recorder
        self.specs = [(cls.__name__, kwargs) for cls, kwargs in specs]

    def update(self, shell):
        rec = self.recorder
        keys: list[str] = []
        for cls_name, kwargs in self.specs:
            keys += [k for k in accessors_for(cls_name, kwargs, shell.length) if k not in keys]
        for key in keys:
            name, call = _ACCESSORS[key]
            with rec.span(name):
                call(shell)
        with rec.span("trace.tally"):
            rec.count("bulk.words", shell.count)
            if "twisted" in keys:
                member = shell.membership_mask()
                rec.count("bulk.excluded.twisted", (~member).sum())
                rec.count("bulk.excluded.signature_fill", (member & ~shell.bo_valid_mask()).sum())
            if "jordan" in keys:
                rec.count("bulk.excluded.jordan_residual", (~shell.jordan_coords()[1]).sum())

    def merge(self, other):
        pass


class TimedCollector:
    """Times one workload collector's update and merge."""

    def __init__(self, recorder: Recorder, cls, kwargs):
        self.recorder = recorder
        self.inner = cls(**kwargs)

    def update(self, shell):
        with self.recorder.span("counting.collect"):
            self.inner.update(shell)

    def merge(self, other):
        with self.recorder.span("bulk.merge"):
            self.inner.merge(other.inner)


def traced_specs(recorder: Recorder, specs):
    """Collector specs for run_bulk: unchanged unless the recorder is on."""
    if not recorder.enabled:
        return specs
    return [(ProbeCollector, {"recorder": recorder, "specs": specs})] + [
        (TimedCollector, {"recorder": recorder, "cls": cls, "kwargs": kwargs}) for cls, kwargs in specs
    ]


def untraced_collectors(recorder: Recorder, cols):
    return [c.inner for c in cols[1:]] if recorder.enabled else cols
