"""Span tracer that wraps the package's public calls from outside.

``Tracer.install`` replaces functions on the package's modules and classes
with timing wrappers and ``uninstall`` puts the originals back; the package
itself is not edited.  Coarse calls (an assembly, an engine run, a probe, a
grid, a transfer) are kept as spans (id, name, start, end, parent) in memory
and written out at the end.  Fine calls that run hundreds of thousands of
times per round (cache accesses, flushes, fills, the covert channel's per
symbol steps) are only counted and timed, so the trace stays small.  A
span's self time is its duration minus the time of the calls made inside it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (layer name, module attribute path, keep spans)
SPANS = True
COUNTS = False
WRAPPED = (
    ("isa.assemble", "isa.assemble", SPANS),
    ("core.run", "core.run", SPANS),
    ("memory.access", "memory.MemorySystem.access", COUNTS),
    ("memory.flush_line", "memory.MemorySystem.flush_line", COUNTS),
    ("memory.fill", "memory.MemorySystem.fill", COUNTS),
    ("attacks.run_matrix", "attacks.run_matrix", SPANS),
    ("attacks.flush_reload", "attacks.flush_reload", SPANS),
    ("covert.run_channel", "covert.run_channel", SPANS),
    ("covert.sender_inject", "covert.sender_inject", COUNTS),
    ("covert.receiver_decode", "covert.receiver_decode", COUNTS),
    ("reporting.emit_report", "reporting.emit_report", SPANS),
)

# Modules that bound a wrapped function to a name of their own at import.
ALIASES = {"isa.assemble": ("attacks",), "core.run": ("attacks",)}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.nested: dict = defaultdict(int)  # (parent, child) -> calls
        self.sim: dict = defaultdict(int)  # engine statistics from core.run traces
        self._stack: list = []
        self._originals: list = []

    # -- installation --------------------------------------------------------

    def _owner(self, dotted: str):
        obj = self.package
        parts = dotted.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        return obj, parts[-1]

    def install(self) -> None:
        for name, path, keep in WRAPPED:
            owner, attr = self._owner(path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, keep)
            targets = [(owner, attr)]
            targets += [(getattr(self.package, m), attr) for m in ALIASES.get(name, ())]
            for target, target_attr in targets:
                self._originals.append((target, target_attr, getattr(target, target_attr)))
                setattr(target, target_attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn, keep: bool):
        stack = self._stack
        clock = time.perf_counter
        engine = name == "core.run"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, len(self.spans) if keep else None, clock(), 0.0]
            if keep:
                self.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                    self.nested[(parent[0], name)] += 1
                if keep:
                    self.spans[frame[1]] = (frame[1], name, frame[2], end,
                                            parent[1] if parent else None)
            if engine:
                self.sim["retired"] += len(result.retired_seqs)
                self.sim["squashed"] += len(result.squashed_seqs)
                self.sim["events"] += len(result.events)
                self.sim["cycles"] += result.cycles
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
