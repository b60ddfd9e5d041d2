"""Outside-in tracing: spans around the program's public functions.

The tracer replaces each listed function by a wrapper in every loaded
``gptforge`` module that binds it: its own module attribute and each name
created by ``from .x import f`` (and the package re-exports).  Calls made
inside the program therefore resolve to the wrapper too, so nested layers
become child spans.  Nothing inside the program is edited; uninstalling
puts the original objects back.

A span is ``[name, start, end, parent, op, extra]``; ``parent`` is the
index of the enclosing span (-1 for a root) and ``op`` the identifier of the
benchmark operation it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> public functions whose calls are timed as layer spans
LAYERS = {
    "cli": ("main",),
    "finite_rep": (
        "generate_group", "subgroup_from_generators", "conjugacy_classes",
        "character_table", "is_gelfand_pair", "frobenius_schur",
        "spherical_units", "count_probabilistic_structures",
    ),
    "classification": ("spherical_reality_audit",),
    "discrimination": (
        "max_distinguishable", "encoding_game_value",
        "max_distinguishable_sampled",
    ),
    "numerics": ("lp_solve",),
    "compact_rep": (
        "haar_samples", "subgroup_samples", "rep_matrices",
        "invariant_projector",
    ),
    "state_space": ("build_structure", "sphere_check"),
    "deformation": (
        "make_deformation_path", "deform", "symmetrized_distance_estimate",
        "structure_distance_lower_bound", "schur_average_check",
        "pure_state_distance",
    ),
}

LAYER_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)


def _lp_extra(args, kwargs, result):
    """(constraint rows, solved to optimality) of one lp_solve call."""
    p = args[0] if args else kwargs["p"]
    rows = sum(len(pair[1]) for pair in (p.eq, p.ub) if pair is not None)
    return rows, bool(result.optimal)


def _rep_matrices_extra(args, kwargs, result):
    """Number of group elements turned into matrices."""
    elements = args[1] if len(args) > 1 else kwargs["elements"]
    return 1 if np.ndim(elements) == 2 else len(elements)


EXTRAS = {
    "numerics.lp_solve": _lp_extra,
    "compact_rep.rep_matrices": _rep_matrices_extra,
}


class Tracer:
    """Collects spans while installed and ``enabled``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = False
        self.missing = []
        self._patches = []  # (module, attribute, original, wrapper)

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(args, kwargs, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Patch every binding of every listed function that exists."""
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gptforge"
                                         or key.startswith("gptforge."))]
        self.missing = []
        for name in LAYER_NAMES:
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"gptforge.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original, wrapper))

    def uninstall(self):
        for mod, attr, original, _ in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def start_op(self, op_id, label):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([f"op.{label}", perf_counter(), 0.0, -1, op_id,
                           None])
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self.spans[self.stack.pop()][2] = perf_counter()
        self.op = None


def self_times(spans):
    """Per-span self time: duration minus the time covered by children.

    Children of one span never overlap (calls are synchronous in one
    thread), so their coverage is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans, traced_ops, passes):
    """Per-layer metrics for the spans of ``traced_ops``, per traced pass.

    Returns (metrics, max_gap) where max_gap is the largest difference over
    ops between the op's wall time and the sum of self times inside it;
    it is zero up to rounding when every span nested properly.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    lp_rows = lp_optimal = elements = 0
    op_wall = defaultdict(float)
    op_self_sum = defaultdict(float)
    root_self = 0.0
    for s, st in zip(spans, selfs):
        op = s[4]
        if op not in traced_ops:
            continue
        name = s[0]
        op_self_sum[op] += st
        if name.startswith("op."):
            op_wall[op] += s[2] - s[1]
            root_self += st
            continue
        calls[name] += 1
        self_s[name] += st
        if name == "numerics.lp_solve" and s[5] is not None:
            lp_rows += s[5][0]
            lp_optimal += s[5][1]
        elif name == "compact_rep.rep_matrices" and s[5] is not None:
            elements += s[5]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / passes, "s")
    n_lp = calls["numerics.lp_solve"]
    metrics["numerics.lp_solve.rows"] = (lp_rows / passes, "count")
    metrics["numerics.lp_solve.optimal_ratio"] = (
        lp_optimal / n_lp if n_lp else 0.0, "ratio")
    metrics["compact_rep.rep_matrices.elements"] = (elements / passes, "count")
    total_wall = sum(op_wall.values())
    metrics["trace.unattributed_ratio"] = (
        root_self / total_wall if total_wall else 0.0, "ratio")
    max_gap = max((abs(op_wall[op] - op_self_sum[op]) for op in op_wall),
                  default=0.0)
    return metrics, max_gap


def first_call_s(spans, name):
    """Duration of the first recorded span called ``name`` (0 if none)."""
    for s in spans:
        if s[0] == name:
            return s[2] - s[1]
    return 0.0
