"""In-memory span tracer that wraps hyperphase's public functions from outside.

``install`` replaces every public function of the traced modules by a
wrapper, both as the defining module's attribute and wherever another
hyperphase module (``cli`` included) bound it by name, so nested calls such
as ``free_stream_step`` inside ``evolve`` are seen.  A span is
``[name, start, end, parent, bytes]``; ``parent`` is the index of the
enclosing span or -1.  Nothing is written until the caller dumps ``spans``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "formats", "hypergraph", "phasemap", "wigner", "hyperstate")

# Per-element helpers: fmt17 runs once per number written (tens of millions
# of calls at desk scale), so wrapping it would swamp what is measured.
SKIP = {"formats.fmt17"}

# Writers whose spans also record the bytes of the files they produced.
WRITERS = {"formats.write_matrix_csv", "formats.write_state", "formats.write_snapshot"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        writer = name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if writer:
                paths = result if isinstance(result, tuple) else (args[0],)
                span[4] = sum(os.path.getsize(p) for p in paths)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS; call after importing hyperphase.cli."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hyperphase.{layer}"]
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                qualified = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and qualified not in SKIP:
                    wrappers[fn] = self._wrap(qualified, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "hyperphase" or module_name.startswith("hyperphase."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
