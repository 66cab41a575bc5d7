"""Spans around calls into ergolab's public functions, patched in from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.invocation` swaps
each function in :data:`WRAPPED` for a timing wrapper in every ``ergolab``
module namespace that binds it, and puts the originals back on exit.
Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Left unwrapped because each is called >= 1e4 times per invocation and a
# wrapper would cost more than the work: cocycle_parity, classify_floor,
# in_swap_zone, poisson_pmf, gaussian_orthant.
WRAPPED = {
    "cli": ("load_config", "cmd_series", "cmd_verify", "cmd_mc_check"),
    "tower": ("build_stage_table", "refine"),
    "extension": (
        "context_for",
        "cocycle_context",
        "base_leveled_set",
        "verify_windows",
        "overlap_measure",
        "verify_conjugacy",
        "level_swap",
        "straight_orbit",
        "flip_orbit",
    ),
    "averages": (
        "milestone_sequence",
        "event_sweep",
        "default_checkpoints",
        "average_series",
        "divergence_report",
    ),
    "suspension": ("pair_integrand",),
    "oracle": ("three_sigma_gate", "mc_pair_integral_poisson", "mc_gaussian_orthant"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)


class Tracer:
    """Records ``(id, name, start, end, parent, invocation)`` per wrapped call.

    For the span names in ``capture`` it also keeps ``(invocation, name,
    args, result)``, so counters can be computed from the public objects
    a call received and returned.
    """

    def __init__(self, capture: tuple[str, ...] = ()) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.captured: list[tuple[int, str, tuple, object]] = []
        self._capture = frozenset(capture)
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._invocation = -1

    @contextlib.contextmanager
    def invocation(self, invocation_id: int):
        """Trace the calls made inside the block as one invocation."""
        patched = self._install()
        self._invocation = invocation_id
        try:
            yield
        finally:
            for namespace, attr, original in reversed(patched):
                setattr(namespace, attr, original)
            self._stack.clear()

    def _install(self) -> list[tuple[object, str, object]]:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "ergolab" or name.startswith("ergolab.")
        ]
        patched = []
        for mod_name, fns in WRAPPED.items():
            home = importlib.import_module(f"ergolab.{mod_name}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for namespace in namespaces:
                    if vars(namespace).get(fn) is original:
                        patched.append((namespace, fn, original))
                        setattr(namespace, fn, wrapper)
        return patched

    def _wrap(self, name: str, fn):
        spans, stack, ids, captured = self.spans, self._stack, self._ids, self.captured
        capture = name in self._capture

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self._invocation))
            if capture:
                captured.append((self._invocation, name, args, result))
            return result

        return traced

    def layer_totals(self) -> dict[int, dict[str, list[float]]]:
        """Per invocation, per span name: [inclusive s, self s, calls].

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        for sid, name, start, end, _, inv in self.spans:
            tot = out[inv][name]
            tot[0] += end - start
            tot[1] += end - start - child_time[sid]
            tot[2] += 1
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, inv in self.spans:
                fh.write(json.dumps({
                    "id": sid,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "invocation": inv,
                }) + "\n")
