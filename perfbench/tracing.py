"""Spans around the public functions of csskit's modules, from outside.

:class:`Tracer` replaces each traced module attribute with a wrapper that
records one span per call: ``(id, parent, name, thread, start, end)``.
Calls inside a module go through its globals, so a wrapper installed on
``csskit.symmat.residual_add`` also sees the calls ``criteria.advance``
makes.  The parent is the innermost open span on the same thread; the
workers of ``search.swap`` start their own span trees, so the self time of
``search.swap`` includes the time it waits on its pool.

Spans stay in memory while the run is timed; :meth:`Tracer.dump` writes
them out afterwards.  Besides spans, a few wrappers read their arguments
to count what the spans alone cannot show (see ``_ArgHooks``).
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# Module -> traced public functions.  Names are the metric prefixes.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "symmat": (
        "residual_add",
        "pinv_add",
        "pinv_remove",
        "pseudo_inverse",
        "residual_covariance",
        "psd_project",
        "eigh_desc",
        "log_det",
    ),
    "criteria": (
        "advance",
        "retract",
        "score_all",
        "evaluate",
        "objective_from_state",
        "state_from_subset",
    ),
    "search": ("greedy", "swap"),
    "covest": ("read_data_csv", "sample_cov", "pairwise_cov", "pairwise_cov_psd", "to_correlation"),
    "sizesel": ("choose_k", "stat_T", "null_draws_subset_factor", "mc_quantile_subset_factor"),
    "simlab": ("sample", "population_cov"),
    "cli": ("main",),
}

FUNCTIONS: List[str] = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class _ArgHooks:
    """Counters that need a call's arguments (kept per thread where the
    pairing of calls matters)."""

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.positions = 0  # retract calls; only swap makes them
        self.kept = 0  # ... whose next advance re-adds the retracted variable
        self.residual_bytes = 0  # computed: one p x p read plus one p x p write

    def retract(self, args, kwargs):
        state = args[1] if len(args) > 1 else kwargs["state"]
        position = args[3] if len(args) > 3 else kwargs["position"]
        self.local.pending = state.subset[position]
        with self.lock:
            self.positions += 1

    def advance(self, args, kwargs):
        pending = getattr(self.local, "pending", None)
        if pending is None:
            return
        self.local.pending = None
        i = args[3] if len(args) > 3 else kwargs["i"]
        if int(i) == pending:
            with self.lock:
                self.kept += 1

    def residual_add(self, args, kwargs):
        res = args[0] if args else kwargs["res"]
        with self.lock:
            self.residual_bytes += 2 * 8 * int(res.shape[0]) ** 2


class Tracer:
    """Installs span-recording wrappers on csskit's modules."""

    def __init__(self, csskit_pkg):
        self.pkg = csskit_pkg
        self.spans: List[tuple] = []
        self.hooks = _ArgHooks()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []

    def install(self):
        hook_for = {
            "criteria.retract": self.hooks.retract,
            "criteria.advance": self.hooks.advance,
            "symmat.residual_add": self.hooks.residual_add,
        }
        for mod_name, fns in LAYERS.items():
            mod = getattr(self.pkg, mod_name)
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                label = f"{mod_name}.{fn_name}"
                self._saved.append((mod, fn_name, orig))
                setattr(mod, fn_name, self._wrap(label, orig, hook_for.get(label)))

    def uninstall(self):
        for mod, fn_name, orig in reversed(self._saved):
            setattr(mod, fn_name, orig)
        self._saved.clear()

    def _wrap(self, label, fn, hook):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if hook is not None:
                hook(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, label, threading.get_ident(), start, end))

        # keep lru_cache controls reachable through the wrapper
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def dump(self, path: str):
        """Write the spans as JSON: one ``[id, parent, name, thread, start,
        end]`` list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "thread", "start", "end"], "spans": self.spans}, fh)

    def summary(self, rounds: int) -> Dict[str, float]:
        """Per-round calls and self seconds of every traced function, plus
        the derived ratios that spans alone give."""
        child_time: Dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        calls: Dict[str, int] = dict.fromkeys(FUNCTIONS, 0)
        self_s: Dict[str, float] = dict.fromkeys(FUNCTIONS, 0.0)
        incl_s: Dict[str, float] = dict.fromkeys(FUNCTIONS, 0.0)
        fallback_parents = set()
        for sid, parent, name, _, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            incl_s[name] += end - start
            if name == "symmat.pseudo_inverse" and parent:
                fallback_parents.add(parent)
        removes = [s[0] for s in self.spans if s[2] == "symmat.pinv_remove"]
        fallbacks = sum(1 for sid in removes if sid in fallback_parents)

        out: Dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        out["symmat.pinv_remove.fallback_ratio"] = _ratio(fallbacks, len(removes))
        out["symmat.residual_add.gbps_computed"] = _ratio(
            self.hooks.residual_bytes / 1e9, self_s["symmat.residual_add"]
        )
        out["search.swap.positions"] = self.hooks.positions / rounds
        out["search.swap.kept_ratio"] = _ratio(self.hooks.kept, self.hooks.positions)
        self._calls, self._incl = calls, incl_s
        return out

    def calls(self, name: str) -> int:
        """Total calls of ``name`` (after :meth:`summary`)."""
        return self._calls[name]

    def inclusive_s(self, name: str) -> float:
        """Total inclusive span time of ``name`` (after :meth:`summary`)."""
        return self._incl[name]


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return float(num) / den if den else 0.0
