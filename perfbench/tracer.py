"""In-memory span tracer that wraps the lab's public functions from outside.

While installed, every wrapped function records a span (id, name, start,
end, parent, self time) or, for functions called too often to give each
call a span, bumps a counter and an accumulated time that count toward
the caller's span. ``uninstall`` puts every original back, so untraced
phases run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, self_seconds)
        self.counts = Counter()  # calls per span or counter name
        self.busy = defaultdict(float)  # seconds per counter name
        self._stack = []  # [span id, children seconds]
        self._next_id = 0
        self._patches = []
        self.scale = 1.0  # factor applied to times read back (reference speed)

    # -- recording ----------------------------------------------------------

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span; ``name`` may be a
        callable of the call's arguments."""
        naming = name if callable(name) else (lambda *a, **k: name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = naming(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            self.counts[label] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((sid, label, start, end, parent, duration - frame[1]))

        return wrapper

    def counter(self, name, fn, *, timed=False):
        """Wrap ``fn`` so each call bumps ``name`` (and, if ``timed``, its
        busy time) without opening a span."""
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            self.counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[name] += clock() - start

        return timed_wrapper

    # -- installing wrappers --------------------------------------------------

    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)``; a class
        method stays a class method."""
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else _MISSING
        original = getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(original)
        own = raw if isinstance(owner, type) else original
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)

    # -- reading results ------------------------------------------------------

    def snapshot(self):
        """Counts, plus busy seconds under ``<name>.s``."""
        snap = Counter(self.counts)
        snap.update({f"{name}.s": seconds for name, seconds in self.busy.items()})
        return snap

    def per_call(self, name, *, self_time=False):
        """Mean inclusive (or self) seconds per call of span ``name``,
        times ``scale``."""
        durations = [
            (s[5] if self_time else s[3] - s[2]) for s in self.spans if s[1] == name
        ]
        return sum(durations) / len(durations) * self.scale

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, self_s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "self": self_s}
                    )
                    + "\n"
                )
