"""Span tracing of g2flow's public functions, installed from outside the
package.

Every target in ``SPANS`` is replaced by a wrapper that records one span
(name, start, end, parent, returned normally) per call.  The wrapper is
set on the defining module or class *and* on every other ``g2flow``
module that bound the same object with ``from x import y``, so calls
through those bindings are seen too.  A target that no longer exists is
listed in ``Tracer.missing`` instead of raising.

Spans stay in memory; ``layer_metrics`` folds them into per-layer
``calls`` / ``total_s`` / ``self_s`` once the traced work has ended.
"""

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

# (module, attribute path) of every span, grouped by layer.
SPANS = (
    ('algebra', 'metric_data_from_phi'),
    ('algebra', 'star_comps'),
    ('grid', 'exterior_derivative'),
    ('grid', 'partial_derivative'),
    ('grid', 'period_integrals'),
    ('geometry', 'MetricField.from_phi'),
    ('geometry', 'MetricField.christoffel'),
    ('geometry', 'riemann'),
    ('geometry', 'torsion_from_phi'),
    ('geometry', 'covariant_derivative'),
    ('geometry', 'tensor_norm2'),
    ('geometry', 'codifferential'),
    ('curvature', 'weyl'),
    ('curvature', 'c1_norm'),
    ('curvature', 'metric_distortion'),
    ('flow', 'step'),
    ('flow', 'step_fixed'),
    ('flow', 'suggest_dt'),
    ('flow', 'snapshot'),
    ('flow', 'restore'),
    ('verify', 'centered_states'),
    ('verify', 'evaluate_residuals'),
    ('verify', 'compute_aux_terms'),
    ('verify', 'minimal_pinching_constant'),
    ('cli', 'run_flow'),
    ('cli', 'run_verification'),
    ('cli', 'structure_residuals'),
    ('cli', 'crosscheck_residuals'),
    ('report', 'CsvWriter.add_row'),
    ('report', 'CsvWriter.flush'),
    ('report', 'atomic_write_json'),
)

SPAN_NAMES = tuple(f'{mod}.{attr}' for mod, attr in SPANS)

# Counted, not spanned: every RK4 evaluation, accepted or not.
RK4_TARGET = ('flow', '_rk4')

# ROADMAP's baseline per-call times (N=32 perturbed state, axes 1,2,
# seconds), set beside the traced medians of flow_monitored_2d.
BASELINE_NOTES = {
    'curvature.c1_norm': 1.65,
    'geometry.riemann': 0.221,
    'geometry.torsion_from_phi': 0.233,
    'curvature.weyl': 0.327,
    'geometry.MetricField.from_phi': 0.056,
}

EXTRA_METRICS = (
    ('flow.snapshot.bytes', 'B'),
    ('flow.step.accept_ratio', 'fraction'),
    ('trace.overhead_s', 's'),
    ('trace.uncovered_s', 's'),
)


def per_layer_metric_specs():
    """(name, unit) of every metric a traced run prints."""
    out = []
    for name in SPAN_NAMES:
        out += [(f'{name}.calls', 'count'), (f'{name}.total_s', 's'),
                (f'{name}.self_s', 's')]
    return out + list(EXTRA_METRICS)


class Tracer:
    """Installs span wrappers on the g2flow package and keeps the spans.

    Spans are lists ``[name, start, end, parent_index, ok]``; the parent is
    the innermost open span when the call started, -1 at top level.
    """

    def __init__(self, targets=SPANS):
        self.targets = tuple(targets)
        self.names = tuple(f'{mod}.{attr}' for mod, attr in self.targets)
        self.spans = []
        self.missing = []
        self.rk4_attempts = 0
        self.snapshot_bytes = 0
        self._stack = []
        self._paused = 0
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        for mod in {m for m, _ in self.targets} | {RK4_TARGET[0]}:
            try:
                importlib.import_module(f'g2flow.{mod}')
            except ImportError:
                pass
        for mod, path in self.targets:
            name = f'{mod}.{path}'
            after = self._count_snapshot_bytes if name == 'flow.snapshot' \
                else None
            if not self._patch(mod, path,
                               lambda fn, n=name, a=after: self._span(n, fn, a)):
                self.missing.append(name)
        if not self._patch(*RK4_TARGET, self._counter):
            self.missing.append('.'.join(RK4_TARGET))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, mod, path, make_wrapper):
        module = sys.modules.get(f'g2flow.{mod}')
        if module is None:
            return False
        owner_name, _, attr = path.rpartition('.')
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            elif isinstance(raw, property):
                new = property(make_wrapper(raw.fget), raw.fset, raw.fdel,
                               raw.__doc__)
            else:
                new = make_wrapper(raw)
            self._set(owner, attr, new)
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = make_wrapper(original)
        # every module-level binding of the same object, not only the
        # defining one (``from .geometry import tensor_norm2`` and the like)
        for modname, other in list(sys.modules.items()):
            if modname != 'g2flow' and not modname.startswith('g2flow.'):
                continue
            for key, val in list(vars(other).items()):
                if val is original:
                    self._set(other, key, wrapper)
        return True

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[4] = True
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if after is not None and rec[4]:
                    after(args, kwargs)
        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.rk4_attempts += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_snapshot_bytes(self, args, kwargs):
        path = kwargs.get('path', args[1] if len(args) > 1 else None)
        self.snapshot_bytes += os.path.getsize(path)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own
        correctness checks use the traced functions too)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self):
        """Per-span calls / total_s / self_s, plus top-level time and the
        RK4 accept ratio.  total_s counts only the outermost span of a
        name, so a function that recurses into itself is not counted
        twice."""
        calls = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(self.names, 0.0)
        child = [0.0] * len(self.spans)
        top_level = 0.0
        accepted = 0
        for rec in self.spans:
            dur = rec[2] - rec[1]
            if rec[3] >= 0:
                child[rec[3]] += dur
            else:
                top_level += dur
        for i, (name, start, end, parent, ok) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += dur
            if ok and name in ('flow.step', 'flow.step_fixed'):
                accepted += 1
        out = {}
        for name in self.names:
            out[f'{name}.calls'] = calls[name]
            out[f'{name}.total_s'] = total[name]
            out[f'{name}.self_s'] = self_s[name]
        out['flow.snapshot.bytes'] = self.snapshot_bytes
        out['flow.step.accept_ratio'] = (accepted / self.rk4_attempts
                                         if self.rk4_attempts else 1.0)
        return out, top_level

    def call_medians(self, names):
        """Median duration of one call, per span name (None if no call)."""
        durs = {n: [] for n in names}
        for name, start, end, _, _ in self.spans:
            if name in durs:
                durs[name].append(end - start)
        return {n: (statistics.median(d) if d else None)
                for n, d in durs.items()}
