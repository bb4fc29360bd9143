"""Span and counter recorder for the traced benchmark run.

The recorder wraps roughmf's public functions from outside the package: it
replaces each target in its defining module, in every roughmf module that
imported it by name, and on its class for methods, and puts the originals
back on ``uninstall``.  Spans are kept in memory as (name, start, end,
parent) and are reduced to per-layer figures when a round ends.  A layer's
self time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _digest(mu) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(mu.atoms).tobytes())
    h.update(np.ascontiguousarray(mu.weights).tobytes())
    return h.digest()


def _count_solver_steps(counts, name, args, kwargs, out):
    counts[name + ".steps"] += int(out.diagnostics["steps"])


def _count_particle_steps(counts, name, args, kwargs, out):
    mu0, cfg = args[1], args[2]
    counts[name + ".particle_steps"] += mu0.n * cfg.steps


def _pair_counter(values_per_pair):
    """Pairs evaluated and the bytes of per-pair intermediates they imply.

    ``values_per_pair(args)`` gives how many float64 values the kernel forms
    per index pair; the byte figure is computed from array sizes, not read
    from an allocator.
    """

    def count(counts, name, args, kwargs, out):
        ii = args[-3]
        counts[name + ".pairs"] += len(ii)
        counts[name + ".bytes_computed"] += 8 * len(ii) * values_per_pair(args)

    return count


def _count_flow_steps(counts, name, args, kwargs, out):
    counts[name + ".steps"] += len(args[0])


# (metric prefix, module, attribute path, counter or None).  The prefix is
# the layer's name in the benchmark output; roughmf's private `_accel`
# module is reported as `accel` because metric names start with a letter.
TARGETS = [
    ("rng.stream", "roughmf.rng", "stream", None),
    ("meanfield.particle_noise", "roughmf.meanfield", "particle_noise", None),
    ("meanfield.simulate_frozen_law", "roughmf.meanfield", "simulate_frozen_law",
     _count_particle_steps),
    ("meanfield.save_curve", "roughmf.meanfield", "save_curve", None),
    ("models.covariance", "roughmf.models", "covariance", None),
    ("models.psd_sqrt", "roughmf.models", "psd_sqrt", None),
    ("measures.wasserstein_p", "roughmf.measures", "wasserstein_p", None),
    ("measures.dp_bracket", "roughmf.measures", "dp_bracket", None),
    ("measures.EmpiricalMeasure.integrate", "roughmf.measures",
     "EmpiricalMeasure.integrate", None),
    ("roughpath.brownian_lift", "roughmf.roughpath", "brownian_lift", None),
    ("roughpath.RoughPath.init", "roughmf.roughpath", "RoughPath.__post_init__", None),
    ("roughpath.dyadic_approximation", "roughmf.roughpath", "dyadic_approximation", None),
    ("roughpath.rough_distance", "roughmf.roughpath", "rough_distance", None),
    ("accel.pair_sup_first", "roughmf._accel", "pair_sup_first",
     _pair_counter(lambda a: a[0].shape[1])),
    ("accel.pair_sup_second", "roughmf._accel", "pair_sup_second",
     _pair_counter(lambda a: a[0].shape[1] ** 2)),
    ("accel.pair_sup_second_diff", "roughmf._accel", "pair_sup_second_diff",
     _pair_counter(lambda a: 2 * a[0].shape[1] ** 2)),
    ("accel.linear_flow_maps", "roughmf._accel", "linear_flow_maps", _count_flow_steps),
    ("rde.solve_driftless", "roughmf.rde", "solve_driftless", _count_solver_steps),
    ("rde.solve_backward", "roughmf.rde", "solve_backward", _count_solver_steps),
    ("rde.flow_jacobian", "roughmf.rde", "flow_jacobian", None),
    ("rde.doss_sussmann_solve", "roughmf.rde", "doss_sussmann_solve", None),
    ("rde.RdeSolution.integral_defect", "roughmf.rde", "RdeSolution.integral_defect", None),
    ("cocycle.flow_details", "roughmf.cocycle", "flow_details", None),
    ("cocycle.cocycle_defect", "roughmf.cocycle", "cocycle_defect", None),
]

#: extra work counts reported beside `calls` and `self_s`
EXTRA_COUNTS = {
    "meanfield.simulate_frozen_law": ("particle_steps",),
    "measures.wasserstein_p": ("exact", "identical_inputs", "pairs"),
    "accel.pair_sup_first": ("pairs", "bytes_computed"),
    "accel.pair_sup_second": ("pairs", "bytes_computed"),
    "accel.pair_sup_second_diff": ("pairs", "bytes_computed"),
    "accel.linear_flow_maps": ("steps",),
    "rde.solve_driftless": ("steps",),
    "rde.solve_backward": ("steps",),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric the spans give, in a fixed order."""
    names = []
    for prefix, *_ in TARGETS:
        names += [prefix + ".calls", prefix + ".self_s"]
        names += [f"{prefix}.{c}" for c in EXTRA_COUNTS.get(prefix, ())]
    return names


class Tracer:
    """Records spans and counts for one round at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []
        self._pairs = set()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                counter(tracer.counts, name, args, kwargs, out)
            return out

        return wrapper

    def _wrap_wasserstein(self, name, fn):
        tracer = self

        def measured(mu, nu, p, return_info=False):
            return fn(mu, nu, p, return_info=True)

        timed = self._wrap(name, measured, None)

        def wrapper(mu, nu, p, return_info=False):
            value, info = timed(mu, nu, p)
            c = tracer.counts
            c[name + ".exact"] += bool(info["exact"])
            same = np.array_equal(mu.atoms, nu.atoms) and np.array_equal(
                mu.weights, nu.weights
            )
            c[name + ".identical_inputs"] += bool(same)
            tracer._pairs.add((_digest(mu), _digest(nu)))
            return (value, info) if return_info else value

        return wrapper

    def install(self) -> None:
        """Wrap every target; call ``uninstall`` to restore the originals."""
        import roughmf.cli  # noqa: F401  (loads every module that re-binds a target)

        mods = [m for n, m in sys.modules.items() if n == "roughmf" or n.startswith("roughmf.")]
        for prefix, modname, attr, counter in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[leaf]
            if prefix == "measures.wasserstein_p":
                wrapped = self._wrap_wasserstein(prefix, orig)
            else:
                wrapped = self._wrap(prefix, orig, counter)
            if path:  # a method: patch the class only
                self._patches.append((owner, leaf, orig))
                setattr(owner, leaf, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self time and counts for the spans recorded."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {}
        for prefix, *_ in TARGETS:
            out[prefix + ".calls"] = 0
            out[prefix + ".self_s"] = 0.0
            for extra in EXTRA_COUNTS.get(prefix, ()):
                out[f"{prefix}.{extra}"] = 0
        for (name, t0, t1, _), cov in zip(self.spans, covered):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - cov
        for key, val in self.counts.items():
            out[key] = int(val)
        out["measures.wasserstein_p.pairs"] = len(self._pairs)
        return out
