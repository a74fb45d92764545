"""In-memory span tracer for the traced benchmark run.

The tracer never edits canalgeo's source.  It replaces module attributes
through which one layer calls another (``canalgeo.scene.envelope_mesh``,
``canalgeo.canal.evaluate_jet``, ``SphereFamily.jet_at``, ...) with timing
wrappers, so only calls made through those names are seen.

Two kinds of call are recorded:

* spans: one record per call (name, thread, start, end, parent span);
* hot calls (``jet_at``, charts, per-point jets and tensors): only a count,
  busy and self time, kept per thread and charged as child time to the
  enclosing frame, so self times stay consistent without one record each.

Every thread keeps its own frame stack, since scene runs can use a thread
pool.  A span opened on a thread with an empty stack takes the innermost
open span of the main thread as its parent (the pool is always started from
there).  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time

perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "spans", "hot", "samples", "chart_calls")

    def __init__(self):
        self.stack = []  # frames: [child_s, span_id or None]
        self.spans = []  # (id, parent, name, start, end, child_s, failed)
        self.hot = {}  # name -> [calls, busy_s, self_s, failed]
        self.samples = {}  # name -> per-call durations in seconds
        self.chart_calls = 0


class Tracer:
    def __init__(self, sampled_names=()):
        self._states: dict[int, _ThreadState] = {}
        self._main = threading.main_thread().ident
        self._ids = itertools.count(1)
        self._sampled = frozenset(sampled_names)
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = self._states.get(threading.get_ident())
        if st is None:
            st = self._states.setdefault(threading.get_ident(), _ThreadState())
        return st

    def _parent_id(self, stack):
        for frame in reversed(stack):
            if frame[1] is not None:
                return frame[1]
        main = self._states.get(self._main)
        if main is not None and main is not self._state():
            for frame in reversed(main.stack):
                if frame[1] is not None:
                    return frame[1]
        return None

    def call(self, name: str, hot: bool, fn, args, kwargs):
        st = self._state()
        stack = st.stack
        span_id = None if hot else next(self._ids)
        parent = None if hot else self._parent_id(stack)
        frame = [0.0, span_id]
        stack.append(frame)
        failed = False
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            t1 = perf()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            if hot:
                rec = st.hot.get(name)
                if rec is None:
                    rec = st.hot[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                rec[3] += failed
            else:
                st.spans.append((span_id, parent, name, t0, t1, frame[0], failed))
            if name in self._sampled:
                st.samples.setdefault(name, []).append(dur)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, hot=False, after=None):
        """Timing wrapper; ``after`` may inspect or replace the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, hot, fn, args, kwargs)
            return out if after is None else after(out)

        return wrapper

    def patch(self, target: str, make) -> None:
        """Replace ``module:attr.path`` by ``make(original)``.

        A target that no longer exists is recorded in ``missing`` instead of
        failing the run.
        """
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(owner, attr, make(original))

    def wrap_chart(self, surface, name: str):
        """Copy of a ParametricSurface whose chart calls are counted as ``name``."""
        tracer = self
        chart = surface.chart

        def counted(u):
            tracer._state().chart_calls += 1
            return tracer.call(name, True, chart, (u,), {})

        return dataclasses.replace(surface, chart=counted)

    def chart_calls(self) -> int:
        return self._state().chart_calls

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """Per-name calls, busy/self time, failures and duration quantiles."""
        out: dict[str, dict] = {}
        spans = []  # (thread, id, parent, name, start, end, child_s, failed)
        for tid, st in self._states.items():
            spans.extend((tid,) + s for s in st.spans)
            for name, (calls, busy, self_s, failed) in st.hot.items():
                rec = out.setdefault(name, _empty())
                rec["calls"] += calls
                rec["busy_s"] += busy
                rec["self_s"] += self_s
                rec["failed"] += failed

        # children started on another thread (pool workers) are not in their
        # parent's child_s; subtract the part of the parent they cover
        thread_of = {s[1]: s[0] for s in spans}
        cross: dict[int, list] = {}
        for tid, _, parent, _, t0, t1, _, _ in spans:
            if parent is not None and thread_of.get(parent) != tid:
                cross.setdefault(parent, []).append((t0, t1))
        for _, span_id, _, name, t0, t1, child_s, failed in spans:
            covered = _union_within(cross.get(span_id, ()), t0, t1)
            rec = out.setdefault(name, _empty())
            rec["calls"] += 1
            rec["busy_s"] += t1 - t0
            rec["self_s"] += max(0.0, (t1 - t0) - child_s - covered)
            rec["failed"] += failed

        samples: dict[str, list] = {}
        for st in self._states.values():
            for name, vals in st.samples.items():
                samples.setdefault(name, []).extend(vals)
        for name, vals in samples.items():
            vals.sort()
            rec = out[name]
            rec["max_ms"] = 1e3 * vals[-1]
            # quantiles only where enough calls exist to place them
            if len(vals) >= 100:
                rec["p50_ms"] = 1e3 * _quantile(vals, 0.5)
                rec["p90_ms"] = 1e3 * _quantile(vals, 0.9)
        return out

    def write(self, path) -> None:
        spans = []
        for tid, st in self._states.items():
            for span_id, parent, name, t0, t1, child_s, failed in st.spans:
                spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "thread": tid,
                        "start": t0,
                        "end": t1,
                        "child_s": child_s,
                        "failed": bool(failed),
                    }
                )
        spans.sort(key=lambda s: s["start"])
        doc = {
            "stats": self.stats(),
            "counters": self.counters,
            "missing": self.missing,
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _empty() -> dict:
    return {
        "calls": 0,
        "busy_s": 0.0,
        "self_s": 0.0,
        "failed": 0,
        "p50_ms": 0.0,
        "p90_ms": 0.0,
        "max_ms": 0.0,
    }


def _quantile(sorted_vals, q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
