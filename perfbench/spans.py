"""In-memory span recorder that wraps the package's public functions.

Wrapping replaces module (or class) attributes, so calls the package makes
to its own functions through module globals are spanned too: assign_all
-> step1_saturate/step2/check_invariants, step2 -> classify_frontier,
build_reeb -> pl_criticality, label_reeb -> classify_essential ->
cut_along.  A target missing from the package is skipped and reports zero
calls.
"""
from __future__ import annotations

import functools
from time import perf_counter_ns

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: list = []  # return values of keep-result targets
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("span %s closed out of order" % self.spans[idx][NAME])

    def root(self, name: str, op_id) -> int:
        """Open the top-level span of one op (or of one set-up)."""
        if self._stack:
            raise RuntimeError("root span %s opened inside another span" % name)
        self._op = op_id
        return self.begin(name)

    def clear(self) -> None:
        self.spans = []
        self.results = []

    # -- wrapping ------------------------------------------------------------

    def _wrapped(self, name: str, fn, keep_result: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if keep_result:
                tracer.results.append(result)
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, keep result) target."""
        for owner, attr, name, keep in targets:
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapped(name, raw.__func__, keep))
            else:
                new = self._wrapped(name, raw, keep)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_errors(spans) -> list[str]:
    """Spans left open, or children reaching outside their parent."""
    errors = []
    for i, s in enumerate(spans):
        if s[END] is None:
            errors.append("span %d (%s) never closed" % (i, s[NAME]))
            continue
        p = s[PARENT]
        if p >= 0 and spans[p][END] is not None and not (
                spans[p][START] <= s[START] and s[END] <= spans[p][END]):
            errors.append("span %d (%s) outside its parent %s"
                          % (i, s[NAME], spans[p][NAME]))
    return errors
