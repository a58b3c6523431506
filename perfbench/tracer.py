"""In-memory span recorder for the traced benchmark run.

Spans come from wrappers that this file installs around functions of the
program, looked up where their callers look them up. Nothing inside the
program is edited. Each span records a name, a start, an end, its parent
span and the id of the scan it belongs to.

- One scan is in flight at a time, so the scan id is process-wide: the
  benchmark loop sets ``Tracer.scan`` before each scan.
- Parents come from a per-thread stack. Work handed to a
  ``ThreadPoolExecutor`` (the engine's area workers, netprobe's probe pool)
  inherits the submitting thread's current span as its parent.
- Spans stay in memory until the run ends. ``dump`` writes them as JSON so
  a testbed child process can hand its spans to the benchmark.

Times are ``time.monotonic()``, which is CLOCK_MONOTONIC on Linux and so
comparable between the benchmark and its testbed child.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    scan: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scan: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str) -> Span:
        parent = self.current()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        span = Span(
            sid, name, time.monotonic(),
            parent=parent.sid if parent is not None else None, scan=self.scan,
        )
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.monotonic()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrappers --------------------------------------------------------

    def traced(
        self,
        fn: Callable,
        name: str,
        on_return: Optional[Callable[[Span, tuple, dict, Any], Any]] = None,
        thread_cpu: bool = False,
    ) -> Callable:
        """``fn`` wrapped so that each call records one span.

        ``on_return(span, args, kwargs, result)`` may annotate the span and
        returns the value handed back to the caller. ``thread_cpu`` records
        the calling thread's CPU seconds spent inside the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            cpu0 = time.thread_time() if thread_cpu else 0.0
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    result = on_return(span, args, kwargs, result)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                if thread_cpu:
                    span.attrs["cpu_s"] = time.thread_time() - cpu0
                tracer._close(span)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by ``traced(owner.attr, name, **options)``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, **options))

    def propagate_to_pools(self) -> None:
        """Make executor work inherit the submitter's span as its parent."""
        pool_cls = concurrent.futures.ThreadPoolExecutor
        original_submit = pool_cls.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return original_submit(pool, run, *args, **kwargs)

        self._patches.append((pool_cls, "submit", original_submit))
        pool_cls.submit = submit

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hand-off between processes --------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [
                [s.sid, s.name, s.start, s.end, s.parent, s.attrs]
                for s in self.spans
            ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def load_spans(path: str, sid_offset: int) -> list[Span]:
    """Spans another process dumped, with sids shifted past ``sid_offset``."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    return [
        Span(
            sid + sid_offset, name, start, end,
            parent=None if parent is None else parent + sid_offset,
            attrs=attrs,
        )
        for sid, name, start, end, parent, attrs in rows
    ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run in parallel (area workers, probe pools), so the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span.sid] = span.duration - covered
    return out
