"""Spans around calls into ellmult's public functions, installed from outside the package.

A wrapper goes on every module attribute that names a public ellmult
function, because a caller looks the function up where it imported it:
`add` is reached as `curves.add`, `heights.add`, `divpoly.add` and
`localdata.add`, and a call between two functions of one module goes through
that module's globals.  One wrapper per function serves every alias.  Private
(`_name`) functions and modules are never wrapped, and of `cli` only `main` is,
so `cli.main`'s self time is argument parsing, document building and emission.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

PACKAGE = "ellmult"


class Tracer:
    """In-memory spans plus per-function call counts, busy time and self time."""

    def __init__(self):
        self.op_id = -1
        # (op id, span id, parent span id, name, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self._stack: List[List] = []  # [span id, time covered by child spans]
        self._installed: List[Tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled on exit
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[span_id] = (self.op_id, span_id, parent, name, start, end)
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        return traced

    def install(self) -> int:
        """Wrap every public ellmult function at every attribute that names it."""
        wrappers: Dict[int, Callable] = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            if any(part.startswith("_") for part in module_name.split(".")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + ".") or any(part.startswith("_") for part in home.split(".")):
                    continue
                if value.__name__.startswith("_"):
                    continue
                if home == PACKAGE + ".cli" and value.__name__ != "main":
                    continue
                if id(value) not in wrappers:
                    name = f"{home[len(PACKAGE) + 1:]}.{value.__qualname__}"
                    wrappers[id(value)] = self.wrap(name, value)
                setattr(module, attr, wrappers[id(value)])
                self._installed.append((module, attr, value))
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as stream:
            for span in self.spans:
                if span is not None:
                    stream.write(json.dumps(span) + "\n")
