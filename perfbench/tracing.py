"""In-memory span tracer that wraps the public entry points of each anisodisp
layer from outside the package.

A span is (name, start, end, parent).  Counts are recorded at the same
boundaries.  Wrappers are installed only for traced rounds and removed
afterwards, so untimed and untraced code runs the original functions.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.fft

LAYERS = ("spectral", "lp", "semigroup", "oscillatory", "sqg", "boussinesq",
          "harness", "cli")


def _fft_bytes(counts, args, kwargs, result, pre):
    counts["spectral.fft.bytes"] += np.asarray(args[0]).nbytes + result.nbytes


def _quadrature_points(counts, args, kwargs, result, pre):
    # _polar_quadrature(p, t, j, n_r, n_psi)
    counts["oscillatory.quadrature_points"] += int(args[3]) * int(args[4])


def _props_size(args, kwargs):
    return len(args[0]._props)


def _propagator_hit(counts, args, kwargs, result, pre):
    if len(args[0]._props) == pre:
        counts["boussinesq.propagator.hits"] += 1


def _report_bytes(counts, args, kwargs, result, pre):
    out_dir = args[1]
    stem = args[2] if len(args) > 2 else kwargs.get("stem", "report")
    for ext in (".csv", ".txt"):
        counts["harness.report_bytes"] += os.path.getsize(
            os.path.join(out_dir, stem + ext))


def _targets():
    """(owner, attribute, span name, before hook, after hook) for every wrap."""
    from anisodisp import (boussinesq, cli, harness, lp, oscillatory, semigroup,
                           spectral, sqg)

    norms = ("l2_norm", "linf_norm", "l1_norm", "sobolev_norm")
    return [
        (scipy.fft, "fft2", "spectral.fft", None, _fft_bytes),
        (scipy.fft, "ifft2", "spectral.fft", None, _fft_bytes),
        (spectral, "apply_multiplier", "spectral.apply_multiplier", None, None),
        (spectral.MultiplierSpec, "symbol", "spectral.symbol", None, None),
        *[(spectral, n, "spectral.norms", None, None) for n in norms],
        (lp.LPBank, "besov_norm", "lp.besov_norm", None, None),
        (semigroup, "evolve_linear", "semigroup.evolve_linear", None, None),
        (semigroup, "measure_decay", "semigroup.measure_decay", None, None),
        (semigroup, "sharpness_check", "semigroup.sharpness_check", None, None),
        (semigroup, "bessel_j0", "semigroup.bessel_j0", None, None),
        (oscillatory, "kernel_direct", "oscillatory.kernel_direct", None, None),
        (oscillatory, "_polar_quadrature", "oscillatory.quadrature", None,
         _quadrature_points),
        (oscillatory, "split_bound", "oscillatory.split_bound", None, None),
        (oscillatory, "find_stationary", "oscillatory.find_stationary", None, None),
        (sqg, "run_and_diagnose", "sqg.run_and_diagnose", None, None),
        (sqg, "step", "sqg.step", None, None),
        (sqg._Workspace, "nonlinear", "sqg.nonlinear", None, None),
        (sqg._Workspace, "propagator", "sqg.propagator", None, None),
        (boussinesq, "stability_experiment", "boussinesq.stability_experiment",
         None, None),
        (boussinesq, "step", "boussinesq.step", None, None),
        (boussinesq._Workspace, "nonlinear", "boussinesq.nonlinear", None, None),
        (boussinesq._Workspace, "propagator", "boussinesq.propagator",
         _props_size, _propagator_hit),
        (harness, "load_config", "cli.load_config", None, None),
        (harness, "run", "harness.run", None, None),
        (harness.ExperimentReport, "write", "harness.report_write", None,
         _report_bytes),
        (cli, "main", "cli.main", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            counts[name + ".calls"] += 1
            if after:
                after(counts, args, kwargs, result, pre)
            return result

        return wrapper

    def install(self):
        """Replace every target, including names bound by `from x import f`."""
        modules = [m for k, m in sys.modules.items()
                   if k == "anisodisp" or k.startswith("anisodisp.")]
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, before, after)
            holders = [owner] + [m for m in modules
                                 if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._undo.append((holder, attr, original))

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans of the name
        only), self seconds (span minus its child spans), durations."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = end - start
            rec = out[name]
            rec["calls"] += 1
            if not self._nested_in_same_name(i):  # sweep members re-enter harness.run
                rec["s"] += d
            rec["self_s"] += d - child_time[i]
            rec["durations"].append(d)
        return dict(out)

    def _nested_in_same_name(self, i):
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
