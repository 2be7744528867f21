"""Span recording at polylat's layer boundaries, for the traced benchmark run.

A layer boundary is a place where one module calls into another.  The
tracer replaces the callable bound at that place (a module attribute or a
class method) by a wrapper that records a span -- name, start, end, parent --
and restores the original when the traced run ends.  The untraced run
installs nothing.
"""

import contextlib
import time
from collections import defaultdict


def boundaries(pl, family: str):
    """(owner, attribute, span name) for every wrapped callable."""
    om = pl.kernel.OmegaMatrix
    return [
        (pl.kernel, "primitive_element", "gfpoly.primitive_element"),
        (pl.kernel, "poly_mul_mod", "gfpoly.poly_mul_mod"),
        (pl.kernel, "mul_mod_matrix", "gfpoly.mul_mod_matrix"),
        (om, "__init__", "kernel.init"),
        (om, "multiply", "kernel.multiply"),
        (om, "column", "kernel.column"),
        (om, "score_exact", "kernel.score_exact"),
        (pl.cbc, "fast_cbc", "cbc.fast_cbc"),
        (pl.cbc, "verify_bound", "cbc.verify_bound"),
        (pl.cbc, "cbc_bound", "weights.cbc_bound"),
        (pl.pointgen, "lattice_points", "pointgen.lattice_points"),
        (pl.pointgen, "classical_digit_array", "pointgen.classical_digit_array"),
        (pl.pointgen, "interlace_digit_array", "pointgen.interlace"),
        (pl.pointgen, "digits_to_values", "pointgen.values"),
        (pl.cli, "classical_digit_array", "pointgen.classical_digit_array"),
        (pl.cli, "interlace_digit_array", "pointgen.interlace"),
        (pl.cli, "digits_to_values", "pointgen.values"),
        (pl.cli, "write_points_csv", "pointgen.write_csv"),
        (pl.cli, "write_points_digits", "pointgen.write_digits"),
        (pl.cli, "main", "cli.points"),
        (pl.quad, "qmc_apply", "quad.apply"),
        (pl.quad, "rational_spod" if family == "rational-spod" else "product_exponential",
         "quad.reference"),
    ]


class Tracer:
    """In-memory spans of one traced iteration.

    Each span is [name, start, end, parent index, root op name]; spans are
    strictly nested because the pipeline runs in one thread, so the time a
    span's children cover is the sum of their durations.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        self.spans.append([name, 0.0, 0.0, parent, root])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.append("failed")
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Swap every target for its wrapper; put the originals back on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total time, self time, failures; per root op."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for i, rec in enumerate(self.spans):
            for key in (rec[0], (rec[0], rec[4])):
                agg = out[key]
                agg["calls"] += 1
                agg["s"] += rec[2] - rec[1]
                agg["self_s"] += rec[2] - rec[1] - child_time[i]
                agg["failed"] += len(rec) > 5
        return out
