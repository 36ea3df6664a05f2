"""Span tracing of the package's public functions from outside the package.

A ``Tracer`` replaces a function at the name its caller resolves (for
example ``aoavi.loss.array_matrix``, which only calls made from inside
``aoavi.loss`` go through) with a wrapper that records one span per call:
name, parent span, request (the block or export being processed), start
and end. ``Tracer.patched`` restores every original on exit. Spans stay in
memory in flat columns; ``Tracer.table`` hands them out as numpy arrays
and ``Tracer.save`` writes them to disk when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module whose global name is replaced, attribute, span name). Each
# replacement sees only the calls that resolve the name in that module.
TRACE_POINTS = (
    ("aoavi.harness", "sample_channel", "signal_model.sample_channel"),
    ("aoavi.harness", "snr_to_noise_variance", "signal_model.snr_to_noise_variance"),
    ("aoavi.harness", "synthesize_observation", "signal_model.synthesize_observation"),
    ("aoavi.signal_model", "array_matrix", "signal_model.array_matrix"),
    ("aoavi.loss", "array_matrix", "loss.array_matrix"),
    ("aoavi.estimator", "array_matrix", "estimator.array_matrix"),
    ("aoavi.baselines", "array_matrix", "baselines.array_matrix"),
    ("aoavi.estimator", "pseudo_labels", "preprocess.pseudo_labels"),
    ("aoavi.baselines", "empirical_covariance", "preprocess.empirical_covariance"),
    ("aoavi.estimator", "closed_form_channel_update", "estimator.channel_update"),
    ("aoavi.harness", "estimate", "estimator.estimate"),
    ("aoavi.harness", "music_estimate", "baselines.music_estimate"),
    ("aoavi.harness", "ls_channel", "baselines.ls_channel"),
    ("aoavi.harness", "aligned_squared_errors", "harness.aligned_squared_errors"),
    ("aoavi.harness", "run_landscape_export", "harness.run_landscape_export"),
    ("aoavi.harness", "stationary_points", "landscape.stationary_points"),
    ("aoavi.harness", "evaluate_surface", "landscape.evaluate_surface"),
)


class Tracer:
    """Records spans of wrapped calls; ``request`` tags the spans of the
    block or export currently being processed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.request = -1
        self.last_result: dict[str, object] = {}
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._request.append(self.request)
            self._end.append(0.0)
            stack.append(idx)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                stack.pop()
            self.last_result[name] = result
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install a wrapper at every trace point; restore the originals
        on exit, also when the body raises."""
        originals = []
        try:
            for module_name, attr, span_name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, span_name))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def table(self) -> dict[str, np.ndarray]:
        """Columns of every span so far, plus each span's self time (its
        duration minus the durations of its direct children)."""
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": parent,
            "request": np.frombuffer(self._request, dtype=np.int32).copy(),
            "duration": duration,
            "self": duration - child,
        }

    def name_id(self, name: str) -> int:
        return self._ids[name]

    def save(self, path: Path) -> None:
        """Write the spans (times relative to the first span) as .npz."""
        start = np.frombuffer(self._start, dtype=float)
        origin = float(start[0]) if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            request=np.frombuffer(self._request, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self._end, dtype=float) - origin,
        )
