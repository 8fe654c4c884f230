"""Per-layer tracing from outside the program.

Tracer.install() wraps every public function of each ineqkit layer module
and puts the wrapper in every ineqkit module namespace that holds the
function: verify does `from .smoothness import difference_norms`, so
patching only the defining module would miss its calls.  Each call records a
span (function, start, end, parent span) in memory; Tracer.metrics() turns
them into the per-layer metrics and Tracer.save() writes the spans out.

`quadrature` is not wrapped: it is only called from smoothness, hardyops and
fourier, so its time falls in their self time.  `cli` only parses flags and
calls verify and render, which are wrapped.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import resource
import sys
import time
from array import array
from collections import Counter

import numpy as np

from ineqkit import norms

LAYERS = ("gridfn", "norms", "rearrange", "smoothness", "hardyops", "fourier",
          "verify", "render")

_parse_norm = norms.parse_norm  # the unwrapped parser, for the counters


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []       # "<layer>.<function>" per function index
        self.fn = array("i")             # per span: function index
        self.parent = array("i")         # per span: parent span, -1 at the top
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {"gridfn.sample_member": set(),
                                     "fourier.transform": set()}
        self._stack: list[list] = []     # open spans: [span id, child time]
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        layers = [importlib.import_module(f"ineqkit.{layer}") for layer in LAYERS]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ineqkit" or name.startswith("ineqkit."))]
        for layer, mod in zip(LAYERS, layers):
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        i = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        stack, perf = self._stack, time.perf_counter
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        calls, incl, self_time = self.calls, self.incl, self.self_time

        def wrapper(*args, **kwargs):
            after = hook(*args, **kwargs) if hook else None
            sid = len(starts)
            fns.append(i)
            parents.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            ends.append(0.0)
            t0 = perf()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[sid] = t1
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][1] += d
                calls[i] += 1
                incl[i] += d
                self_time[i] += d - frame[1]
                if after:
                    after()

        return functools.wraps(fn)(wrapper)

    # -- counters: called with the arguments, before the call --------------

    def _count_gridfn_sample_member(self, fam, grid, *a, **k):
        self.keys["gridfn.sample_member"].add((fam, grid))

    def _count_smoothness_difference_norms(self, f, axis, multiples, *a, **k):
        ms = np.abs(np.asarray(multiples, dtype=np.int64))
        self.counts["smoothness.difference_norms.shifts"] += ms.size
        self.counts["smoothness.difference_norms.shifts_out_of_box"] += int(
            np.count_nonzero(ms >= f.values.shape[axis]))

    def _count_norms_norm_of_values(self, values, grid, spec, *a, **k):
        spec = _parse_norm(spec) if isinstance(spec, str) else spec
        self.counts["norms.norm_of_values.elements"] += values.size
        if isinstance(spec, norms.Lorentz):
            sorted_ = np.count_nonzero(values)
        elif isinstance(spec, norms.Mixed):
            sorted_ = values.size if isinstance(spec.inner, norms.Lorentz) else 0
            if isinstance(spec.outer, norms.Lorentz):
                sorted_ += np.count_nonzero(np.any(values, axis=spec.axis))
        else:
            sorted_ = 0
        self.counts["norms.norm_of_values.lorentz_elements"] += int(sorted_)

    def _count_rearrange_decreasing_rearrangement(self, f, *a, **k):
        self.counts["rearrange.decreasing_rearrangement.elements"] += f.values.size

    def _count_fourier_transform(self, f, *a, **k):
        self.counts["fourier.transform.elements"] += f.values.size
        digest = hashlib.blake2b(np.ascontiguousarray(f.values).tobytes(),
                                 digest_size=16).digest()
        self.keys["fourier.transform"].add((f.spec, f.values.dtype.str, digest))

    def _count_verify_run(self, spec, dim, families, coarse_grid, jobs=1):
        # The processes that evaluate the tasks: the pool workers when run()
        # maps over a pool, this process otherwise.
        if jobs is None:
            jobs = os.cpu_count() or 1
        pooled = jobs > 1 and len(families) > 1
        who = resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF
        cpu0, t0 = _cpu(who), time.perf_counter()

        def after():
            self.counts["verify.pool.worker_cpu_s"] += _cpu(who) - cpu0
            self.counts["verify.pool.capacity_s"] += (
                (jobs if pooled else 1) * (time.perf_counter() - t0))
        return after

    # -- results -------------------------------------------------------------

    def _by_name(self, table: list) -> dict:
        return dict(zip(self.names, table))

    def metrics(self) -> dict:
        """Per-layer metrics by name, as plain numbers (see README.md)."""
        calls, incl, own = (self._by_name(t) for t in (self.calls, self.incl, self.self_time))
        c = self.counts
        layer_self = Counter()
        for name, s in own.items():
            layer_self[name.split(".")[0] + ".self_s"] += s

        def reuse(name):
            return 1.0 - len(self.keys[name]) / calls[name] if calls[name] else 0.0

        capacity = c["verify.pool.capacity_s"]
        return {
            "gridfn.sample_member.calls": calls["gridfn.sample_member"],
            "gridfn.sample_member.distinct": len(self.keys["gridfn.sample_member"]),
            "gridfn.sample_member.reuse_frac": reuse("gridfn.sample_member"),
            "gridfn.self_s": layer_self["gridfn.self_s"],
            "smoothness.difference_norms.calls": calls["smoothness.difference_norms"],
            "smoothness.difference_norms.shifts": c["smoothness.difference_norms.shifts"],
            "smoothness.difference_norms.shifts_out_of_box":
                c["smoothness.difference_norms.shifts_out_of_box"],
            "smoothness.difference_norms.incl_s": incl["smoothness.difference_norms"],
            "smoothness.self_s": layer_self["smoothness.self_s"],
            "norms.norm_of_values.calls": calls["norms.norm_of_values"],
            "norms.norm_of_values.elements": c["norms.norm_of_values.elements"],
            "norms.norm_of_values.lorentz_elements": c["norms.norm_of_values.lorentz_elements"],
            "norms.self_s": layer_self["norms.self_s"],
            "rearrange.decreasing_rearrangement.calls": calls["rearrange.decreasing_rearrangement"],
            "rearrange.decreasing_rearrangement.elements":
                c["rearrange.decreasing_rearrangement.elements"],
            "rearrange.self_s": layer_self["rearrange.self_s"],
            "fourier.transform.calls": calls["fourier.transform"],
            "fourier.transform.distinct": len(self.keys["fourier.transform"]),
            "fourier.transform.elements": c["fourier.transform.elements"],
            "fourier.sup_integral_functional.self_s": own["fourier.sup_integral_functional"],
            "fourier.dyadic_shell_sum.self_s": own["fourier.dyadic_shell_sum"],
            "fourier.h1_norm.incl_s": incl["fourier.h1_norm"],
            "fourier.self_s": layer_self["fourier.self_s"],
            "hardyops.self_s": layer_self["hardyops.self_s"],
            "verify.run.calls": calls["verify.run"],
            "verify.run.self_s": own["verify.run"],
            "verify.save_report.s": incl["verify.save_report"],
            "verify.pool.worker_cpu_s": c["verify.pool.worker_cpu_s"],
            "verify.pool.idle_frac":
                1.0 - c["verify.pool.worker_cpu_s"] / capacity if capacity else 0.0,
            "render.render_csv.s": incl["render.render_csv"],
            "render.render_svg.s": incl["render.render_svg"],
        }

    def save(self, path) -> None:
        """Write the spans as columns of an .npz file, with the function names."""
        np.savez(path, names=np.array(self.names), fn=np.asarray(self.fn),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))
