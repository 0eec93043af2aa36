"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps public functions of the `symfrieze` modules from outside:
for each target it finds every module that binds the function object and
patches all of them, so a caller that imported the name directly is seen
too.  `restore` puts every original back.  If a binding listed in
`EXPECTED_BINDINGS` is gone, `install` raises: a refactor that moved a call
must update this file, or its time would silently drop out of a layer.

A span records (name, start, end, parent, job).  A group's busy time is the
time covered by its outermost spans; its self time subtracts the time of
child spans, whatever their group.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

# (module, function) -> span group
SPANNED = {
    ("cli", "main"): "cli",
    **{("formats", f): "formats" for f in (
        "loads", "dumps", "render_frieze_text", "grid_of", "sl_of", "polygon_of",
        "document_of", "sl_document_of", "polygon_document_of")},
    ("frieze", "propagate_from_coeffs"): "frieze.propagate",
    ("frieze", "propagate_from_zigzag"): "frieze.propagate",
    ("frieze", "check_local_rules"): "frieze.local_rules",
    ("frieze", "check_tame"): "frieze.tame",
    **{("frieze", f): "frieze.symmetry" for f in (
        "translate", "mirror_grid", "dihedral_images", "check_glide", "check_periodicity")},
    **{("slfrieze", f): "slfrieze" for f in (
        "black_of", "symplectic_of", "projective_dual", "gale_dual", "coeffs_of",
        "check_unimodular")},
    **{("diffeq", f): "diffeq" for f in ("is_superperiodic", "monodromy", "variety_residuals")},
    **{("legendrian", f): "legendrian" for f in (
        "polygon_from_frieze", "frieze_from_polygon", "coeffs_from_polygon", "normalize_lift")},
    ("linalg", "det"): "linalg.det",
    ("search", "enumerate_friezes"): "search.enumerate",
    ("search", "dihedral_orbits"): "search.orbits",
    **{("cluster", f): "cluster" for f in (
        "formal_frieze", "belt_step", "mutate_seed", "initial_seed", "evaluate_frieze")},
}

# modules besides the defining one that bind a target at the seed commit
EXPECTED_BINDINGS = {
    ("linalg", "det"): {"slfrieze", "legendrian"},
    ("frieze", "check_local_rules"): {"formats"},
    ("frieze", "propagate_from_zigzag"): {"search", "cluster"},
    ("frieze", "translate"): {"search"},
    ("frieze", "dihedral_images"): {"search"},
}

# (module, class, method) -> counter; counted only, no span
COUNTED = {
    ("scalars", "RationalKind", "coerce"): "scalars.coerce",
    ("scalars", "GaussianKind", "coerce"): "scalars.coerce",
    ("scalars", "ComplexFloatKind", "coerce"): "scalars.coerce",
    ("scalars", "RationalKind", "eq"): "scalars.eq",
    ("scalars", "GaussianKind", "eq"): "scalars.eq",
    ("scalars", "ComplexFloatKind", "eq"): "scalars.eq",
    ("cluster", "LaurentPolynomial", "__mul__"): "cluster.laurent_mul",
    ("cluster", "LaurentPolynomial", "__rmul__"): "cluster.laurent_mul",
    ("cluster", "LaurentPolynomial", "__truediv__"): "cluster.laurent_div",
}


class TraceError(RuntimeError):
    """The package no longer has a binding the tracer relies on."""


class Tracer:
    package = "symfrieze"

    def __init__(self):
        self.spans = []  # [name, group, start, end, parent, job, child_time, outermost]
        self.stack = []
        self.depth = {}
        self.counts = {}
        self.job = None
        self.det_integral = 0
        self.det_gaussian = 0
        self.seed_space = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._patches = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def open(self, name: str, group: str) -> None:
        parent = self.stack[-1] if self.stack else None
        outermost = not self.depth.get(group)
        self.depth[group] = self.depth.get(group, 0) + 1
        self.spans.append([name, group, time.perf_counter(), None, parent, self.job, 0.0, outermost])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        idx = self.stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self.depth[span[1]] -= 1
        if span[4] is not None:
            self.spans[span[4]][6] += span[3] - span[2]

    # -- wrappers -------------------------------------------------------------

    def _before(self, name: str, args) -> None:
        if name == "linalg.det":
            self._observe_det(args[0])
        elif name == "search.enumerate_friezes":
            self.seed_space += args[0].bound ** (2 * args[0].width)
        elif name == "formats.loads":
            self.bytes_in += len(args[0].encode())

    def _after(self, name: str, result) -> None:
        if name in ("formats.dumps", "formats.render_frieze_text"):
            self.bytes_out += len(result.encode())

    def _observe_det(self, m) -> None:
        size = m.nrows
        self.count(f"linalg.det{size}" if size in (3, 4, 5) else "linalg.det_other")
        entries = [v for row in m.rows for v in row]
        if m.kind.name == "gaussian":
            self.det_gaussian += 1
        elif all(isinstance(v, Fraction) and v.denominator == 1 for v in entries):
            self.det_integral += 1

    def _span_wrapper(self, name: str, group: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resume, so the consumer's time between items is not ours
                tracer.count(name)
                it = fn(*args, **kwargs)
                while True:
                    tracer.open(name, group)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            tracer._before(name, args)
            tracer.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer._after(name, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return {
            (name[len(prefix):] if name != self.package else "__init__"): mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        }

    def install(self) -> None:
        mods = self._modules()
        for (home, fname), group in SPANNED.items():
            if home not in mods or not hasattr(mods[home], fname):
                raise TraceError(f"{self.package}.{home}.{fname} is gone")
            orig = getattr(mods[home], fname)
            binders = {m for m, mod in mods.items() if vars(mod).get(fname) is orig}
            missing = EXPECTED_BINDINGS.get((home, fname), set()) - binders
            if missing:
                raise TraceError(
                    f"{fname} is no longer bound in {sorted(missing)}; update the tracer")
            wrapped = self._span_wrapper(f"{home}.{fname}", group, orig)
            for m in binders:
                self._patches.append((mods[m], fname, orig))
                setattr(mods[m], fname, wrapped)
        for (home, cls_name, meth), counter in COUNTED.items():
            cls = getattr(mods[home], cls_name, None)
            if cls is None or meth not in vars(cls):
                raise TraceError(f"{self.package}.{home}.{cls_name}.{meth} is gone")
            orig = vars(cls)[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(counter, orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- summary --------------------------------------------------------------

    def layer_metrics(self, factor) -> dict:
        """Per-layer figures; `factor(job)` scales that job's seconds."""
        busy, self_time, calls = {}, {}, {}
        survivors = 0
        det_busy = 0.0
        for name, group, start, end, parent, job, child, outermost in self.spans:
            f = factor(job)
            dur = (end - start) * f
            if outermost:
                busy[group] = busy.get(group, 0.0) + dur
            self_time[group] = self_time.get(group, 0.0) + dur - child * f
            if name == "frieze.propagate_from_zigzag" and parent is not None \
                    and self.spans[parent][0] == "search.enumerate_friezes":
                survivors += 1
            if name == "linalg.det":
                det_busy += dur
        for name, n in self.counts.items():
            calls[name] = n

        def by_layer(layer):
            return sum((v for g, v in busy.items() if g == layer or g.startswith(layer + ".")), 0.0)

        def self_of(layer):
            return sum((v for g, v in self_time.items() if g == layer or g.startswith(layer + ".")), 0.0)

        def calls_in(group):
            return sum(n for (home, f), g in SPANNED.items() if g == group
                       for n in [calls.get(f"{home}.{f}", 0)])

        det_calls = calls.get("linalg.det", 0)
        seed_space = self.seed_space
        return {
            "cli.main.calls": (calls.get("cli.main", 0), "count"),
            "cli.self_s": (self_of("cli"), "s"),
            "formats.busy_s": (by_layer("formats"), "s"),
            "formats.bytes_in": (self.bytes_in, "B"),
            "formats.bytes_out": (self.bytes_out, "B"),
            "frieze.propagate.calls": (calls_in("frieze.propagate"), "count"),
            "frieze.propagate.busy_s": (busy.get("frieze.propagate", 0.0), "s"),
            "frieze.local_rules.busy_s": (busy.get("frieze.local_rules", 0.0), "s"),
            "frieze.tame.busy_s": (busy.get("frieze.tame", 0.0), "s"),
            "frieze.tame.self_s": (self_time.get("frieze.tame", 0.0), "s"),
            "frieze.symmetry.calls": (calls_in("frieze.symmetry"), "count"),
            "frieze.symmetry.busy_s": (busy.get("frieze.symmetry", 0.0), "s"),
            "slfrieze.busy_s": (by_layer("slfrieze"), "s"),
            "slfrieze.self_s": (self_of("slfrieze"), "s"),
            "diffeq.busy_s": (by_layer("diffeq"), "s"),
            "legendrian.busy_s": (by_layer("legendrian"), "s"),
            "linalg.det.calls": (det_calls, "count"),
            "linalg.det.busy_s": (busy.get("linalg.det", 0.0), "s"),
            "linalg.det.mean_us": (det_busy / det_calls * 1e6 if det_calls else 0.0, "us"),
            "linalg.det3.calls": (calls.get("linalg.det3", 0), "count"),
            "linalg.det4.calls": (calls.get("linalg.det4", 0), "count"),
            "linalg.det5.calls": (calls.get("linalg.det5", 0), "count"),
            "linalg.det_other.calls": (calls.get("linalg.det_other", 0), "count"),
            "linalg.det.integral_share": (self.det_integral / det_calls if det_calls else 0.0, "frac"),
            "linalg.det.gaussian_share": (self.det_gaussian / det_calls if det_calls else 0.0, "frac"),
            "scalars.coerce.calls": (calls.get("scalars.coerce", 0), "count"),
            "scalars.eq.calls": (calls.get("scalars.eq", 0), "count"),
            "search.enumerate.busy_s": (busy.get("search.enumerate", 0.0), "s"),
            "search.self_s": (self_time.get("search.enumerate", 0.0), "s"),
            "search.seed_space": (seed_space, "count"),
            "search.survivors": (survivors, "count"),
            "search.survivor_ratio": (survivors / seed_space if seed_space else 0.0, "frac"),
            "search.orbits.busy_s": (busy.get("search.orbits", 0.0), "s"),
            "cluster.busy_s": (by_layer("cluster"), "s"),
            "cluster.self_s": (self_of("cluster"), "s"),
            "cluster.mutations": (calls.get("cluster.mutate_seed", 0), "count"),
            "cluster.laurent_mul.calls": (calls.get("cluster.laurent_mul", 0), "count"),
            "cluster.laurent_div.calls": (calls.get("cluster.laurent_div", 0), "count"),
        }

    def span_records(self):
        """Spans as plain dicts, for writing out after the run."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            for name, _, start, end, parent, job, _, _ in self.spans
        ]
