"""Spans around lurcert's public calls, recorded from outside the package.

Each traced function is replaced, in every lurcert module namespace that
holds a reference to it, by a wrapper that records a span: its name (the
namespace it was called through, e.g. ``lurcert.lur.state_digest``), its
layer, start, end and parent.  A layer's self time is the time of its
spans minus the time of their child spans.  Nothing under ``src/``
changes; installing and removing the wrappers is a few attribute writes,
so the benchmark turns tracing on for exactly the ops it traces.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter


def _bytes_parsed(args, kwargs, result):
    return {"states.parse_bytes": len(args[0])}


def _digest_input(args, kwargs, result):
    return {"states.digest_bytes": args[0].matrix.nbytes}


def _variance_flops(args, kwargs, result):
    # Computed, not counted: rho @ A, A @ A and rho @ A^2 are three complex
    # D x D products at 8 real flops per multiply-add.
    d = args[0].matrix.shape[0]
    return {"uncertainty.variance_flops": 24 * d**3}


def _search_counts(args, kwargs, result):
    return {
        "bound_search.restarts": len(result.restart_minima),
        "bound_search.converged": result.converged_count,
        "bound_search.agreeing": result.restarts_agreeing,
    }


# (defining module, function name) -> (layer, counter hook)
TRACED = {
    ("lurcert.cli", "main"): ("cli", None),
    ("lurcert.states", "read_state"): ("states.parse", None),
    ("lurcert.states", "state_from_json"): ("states.parse", _bytes_parsed),
    ("lurcert.states", "write_state"): ("states.write", None),
    ("lurcert.states", "state_digest"): ("states.digest", _digest_input),
    **{
        ("lurcert.states", name): ("states.family", None)
        for name in (
            "singlet_ket",
            "singlet_state",
            "bell_kets",
            "bell_states",
            "bell_mixture",
            "white_noise_mixture",
            "x_basis_kets",
            "x_decoherence_mixture",
            "min_uncertainty_state_n3",
            "maximally_mixed",
        )
    },
    ("lurcert.lur", "build_joint"): ("lur.joint", None),
    ("lurcert.lur", "joint_from_relations"): ("lur.joint", None),
    ("lurcert.lur", "joint_from_catalog"): ("lur.joint", None),
    ("lurcert.lur", "certify"): ("lur.certify", None),
    ("lurcert.uncertainty", "variance"): ("uncertainty.variance", _variance_flops),
    ("lurcert.linalg", "ensure_hermitian"): ("linalg.ensure_hermitian", None),
    ("lurcert.bound_search", "minimize_sum_uncertainty"): ("bound_search.minimize", _search_counts),
}

# Validation is DensityMatrix.__post_init__, reached from validate(), the
# family constructors, PureState.projector and the file codec alike.
VALIDATE_LAYER = "states.validate"

LAYERS = (
    "cli",
    "states.parse",
    "states.write",
    VALIDATE_LAYER,
    "states.digest",
    "states.family",
    "lur.joint",
    "lur.certify",
    "uncertainty.variance",
    "linalg.ensure_hermitian",
    "bound_search.minimize",
)


class Tracer:
    """In-memory span recorder; ``install`` / ``remove`` toggle the wrappers."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, layer, start, end, child_time]
        self.counts = {}
        self.op_index = -1
        self._stack = []
        self._patches = []
        self._ids = itertools.count()

    def prepare(self):
        """Build one wrapper per reference to a traced function."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "lurcert" or k.startswith("lurcert.")]
        for (mod_name, attr), (layer, hook) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(f"{module.__name__}.{name}", layer, hook, original)
                        self._patches.append((module, name, original, wrapper))
        density = sys.modules["lurcert.states"].DensityMatrix
        original = density.__post_init__
        wrapper = self._wrap("lurcert.states.DensityMatrix", VALIDATE_LAYER, None, original)
        self._patches.append((density, "__post_init__", original, wrapper))

    def install(self, op_index: int):
        self.op_index = op_index
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def remove(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _wrap(self, span_name, layer, hook, original):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [next(ids), stack[-1][0] if stack else None, self.op_index,
                    span_name, layer, perf_counter(), 0.0, 0.0]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][7] += span[6] - span[5]
                spans.append(span)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def layer_totals(self) -> dict:
        """Per layer: self seconds, and calls that did not come from the
        same layer (so nested constructors count once)."""
        by_id = {s[0]: s for s in self.spans}
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for span in self.spans:
            entry = totals[span[4]]
            entry["self_s"] += (span[6] - span[5]) - span[7]
            parent = by_id.get(span[1])
            if parent is None or parent[4] != span[4]:
                entry["calls"] += 1
        return totals

    def write(self, path):
        keys = ("id", "parent", "op", "name", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:7]))) + "\n")
