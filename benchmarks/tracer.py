"""In-memory spans around calls into lthead's modules.

The tracer replaces module attributes that callers look up at call time
(for example `lthead.training.sgd_step`, which `train_stage1` resolves on
every iteration) with wrappers that record a span per call. Nothing inside
`src/` is edited. A span holds its name, start and end (perf_counter_ns),
the index of its parent span and the training iteration it ran in.

A target whose attribute no longer exists is recorded as absent instead of
failing, so a refactor that renames or removes a function shows up as an
absent metric rather than a crashed benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ITERATION = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rows: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.iteration = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, module_name: str, attr: str, name, *, rows=None,
             marks_iteration: bool = False, loop: bool = False) -> None:
        """Wrap `module_name.attr` so every call records a span.

        `name` is a span name or a callable `(args, kwargs) -> name`.
        `rows(args, kwargs)` adds a per-name row count (samples processed).
        `marks_iteration` advances the iteration counter on each call; the
        training loops call the sampler once at the top of every iteration.
        `loop` marks a function that runs such a loop: the counter restarts
        when it is entered and reads -1 again once it returns.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.add(f"{module_name}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if loop:
                tracer.iteration = -1
            if marks_iteration:
                tracer.iteration += 1
            if rows is not None:
                tracer.rows[label] += rows(args, kwargs)
            span = [label, 0, 0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.iteration]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                tracer._stack.pop()
                if loop:
                    tracer.iteration = -1

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Spans nest strictly (one thread, one stack), so the children of a
        span never overlap and their sum is the covered part of its interval.
        """
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def roots(self) -> list[int]:
        """Index of the outermost ancestor of every span.

        A parent is always appended before its children, so one forward pass
        resolves every chain.
        """
        root = []
        for i, span in enumerate(self.spans):
            root.append(i if span[PARENT] < 0 else root[span[PARENT]])
        return root

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start/end ns, parent, iteration."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "iteration": s[ITERATION]}) + "\n")
