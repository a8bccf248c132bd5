"""Layer tracing from outside the program.

The tracer wraps public functions where the consuming modules bind them,
records a span for each call (name, start, end, parent) and keeps per-name
counts, inclusive time and self time, which is a span's time minus the time
of the wrapped calls nested directly inside it.  Spans stay in memory and
are written out when the run ends.  Hot leaves (Airy points, compiled
closures, Gauss-Legendre nodes) are aggregated only, so that millions of
calls cost counters rather than records.

A name that the program no longer has is listed in ``absent`` and the run
goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from time import perf_counter

SPAN_CAP = 50_000
SERIES_CUT = 8.25   # |x| <= 8.25: Airy series band of the program's docs

# (module, attribute, traced name); hot names are aggregated only
PLAIN = [
    ("nclb.quadrature", "gl_nodes", "quadrature.gl_nodes"),
    ("nclb.expr", "simplify", "expr.simplify"),
    ("nclb.diffop", "op_equal", "diffop.op_equal"),
    ("nclb.diffop", "apply", "diffop.apply"),
    ("nclb.diffop", "compose", "diffop.compose"),
    ("nclb.diffop", "commutator", "diffop.commutator"),
    ("nclb.reduction", "fd_apply", "reduction.fd_apply"),
    ("nclb.reduction", "reduced_residual", "reduction.reduced_residual"),
    ("nclb.models", "load_model", "models.load_model"),
    ("nclb.models", "pde_residual", "models.pde_residual"),
    ("nclb.models", "pde_residual_field", "models.pde_residual_field"),
    ("nclb.models", "mode_superposition_h3", "models.mode_superposition_h3"),
]
# (module, attribute, traced name, counter, positional argument it counts)
COUNTED = [
    ("nclb.models", "inverse_gft_h3", "models.inverse_gft_h3",
     "models.gft_points", 2),
    ("nclb.models", "kernel_orthogonality_smoke",
     "models.kernel_orthogonality_smoke", "models.smoke_pairs", 1),
]
HOT = {"quadrature.gl_nodes", "expr.closure", "expr.simplify",
       "airyfun.series", "airyfun.oscillatory", "airyfun.monotone"}
# every public function of these modules is traced as "<layer>.<name>"
WHOLE_MODULES = ("nclb.algebra", "nclb.bilinear", "nclb.ratlinalg")


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, inclusive_s, child_s]
        self.counters = {}
        self.spans = []          # (id, parent_id, name, start, end)
        self.absent = []
        self.airy_args = set()
        self._stack = []         # [span_id, child_s]
        self._ids = itertools.count(1)
        self._gl_nodes = None
        self._gl_base = (0, 0)   # cache counts when the timed part began
        self.setup = None

    # -- recording ---------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span called `name` (or name(args) if callable)."""
        stack = self._stack
        stats = self.stats
        spans = self.spans
        ids = self._ids
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = naming(args) if naming else name
            keep = label not in HOT and len(spans) < SPAN_CAP
            frame = [next(ids) if keep else None, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep:
                    spans.append((frame[0], parent and parent[0], label,
                                  t0, t1))
            if after is not None:
                result = after(result, args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace `original` in every loaded nclb module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("nclb") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)

    def _lookup(self, modname, attr, name):
        mod = self._module(modname)
        if mod is None or not hasattr(mod, attr):
            self.absent.append(name)
            return None
        return getattr(mod, attr)

    def _module(self, modname):
        try:
            return importlib.import_module(modname)
        except ImportError:
            self.absent.append(modname)
            return None

    def install(self):
        """Wrap the program's layer boundaries; call after importing nclb."""
        self._gl_nodes = self._lookup("nclb.quadrature", "gl_nodes",
                                      "quadrature.gl_nodes")
        for modname, attr, name in PLAIN:
            fn = self._lookup(modname, attr, name)
            if fn is not None:
                self._rebind(fn, self.wrap(name, fn))

        for modname, attr, name, counter, pos in COUNTED:
            fn = self._lookup(modname, attr, name)
            if fn is not None:
                self._rebind(fn, self.wrap(name, fn,
                                           after=self._counting(counter, pos)))

        airy = self._lookup("nclb.airyfun", "airy", "airyfun.airy")
        if airy is not None:
            self._rebind(airy, self.wrap(self._airy_band, airy))

        compile_expr = self._lookup("nclb.expr", "compile_expr", "expr.compile")
        if compile_expr is not None:
            self._rebind(compile_expr, self.wrap(
                "expr.compile", compile_expr,
                after=lambda fn, a, k: self.wrap("expr.closure", fn)))

        gft_ev = self._lookup("nclb.models", "inverse_gft_h3_evaluator",
                              "models.inverse_gft_h3_evaluator")
        if gft_ev is not None:
            self._rebind(gft_ev, self.wrap(
                "models.inverse_gft_h3_evaluator", gft_ev,
                after=lambda fn, a, k: self.wrap("models.gft_point", fn)))

        for attr in ("solve_reduced", "flow"):
            name = f"reduction.{attr}"
            fn = self._lookup("nclb.reduction", attr, name)
            if fn is not None:
                self._rebind(fn, self.wrap(name, fn, after=self._count_steps))

        for modname in WHOLE_MODULES:
            mod = self._module(modname)
            if mod is None:
                continue
            layer = modname.split(".")[1]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == modname):
                    self._rebind(fn, self.wrap(f"{layer}.{attr}", fn))

        cli = self._module("nclb.cli")
        commands = [a for a in vars(cli) if a.startswith("_cmd_")] if cli else []
        if not commands:
            self.absent.append("cli._cmd_*")
        for attr in commands:
            fn = getattr(cli, attr)
            self._rebind(fn, self.wrap(f"cli.{attr[1:]}", fn))

    def mark(self):
        """Start the timed part; what came before is kept apart as set-up."""
        self.setup = self.summary()
        self.stats.clear()
        self.counters.clear()
        self.airy_args.clear()
        self._gl_base = self._gl_info() or (0, 0)

    def _gl_info(self):
        """(hits, misses) of the program's gl_nodes cache, None without one."""
        cache_info = getattr(self._gl_nodes, "cache_info", None)
        if cache_info is None:
            return None
        info = cache_info()
        return info.hits, info.misses

    def _airy_band(self, args):
        x = float(args[1])
        self.airy_args.add(x)
        if abs(x) <= SERIES_CUT:
            return "airyfun.series"
        return "airyfun.oscillatory" if x < 0 else "airyfun.monotone"

    def _counting(self, counter, pos):
        def after(result, args, kwargs):
            self.count(counter, len(args[pos]))
            return result
        return after

    def _count_steps(self, result, args, kwargs):
        if isinstance(result, tuple):          # solve_reduced: (values, chars)
            chars = result[1]
        else:                                  # flow: one Characteristic
            chars = [result]
        self.count("reduction.rk4_steps", sum(len(c.ts) - 1 for c in chars))
        return result

    # -- output ------------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive and self seconds, plus counters."""
        names = {n: {"calls": c, "incl_s": t, "self_s": t - ch}
                 for n, (c, t, ch) in self.stats.items()}
        counters = dict(self.counters)
        counters["airyfun.distinct_args"] = len(self.airy_args)
        info = self._gl_info()
        if info is None:
            self.absent.append("quadrature.gl_nodes.cache_info")
        else:
            counters["quadrature.gl_nodes_hits"] = info[0] - self._gl_base[0]
            counters["quadrature.gl_nodes_misses"] = info[1] - self._gl_base[1]
        return {"names": names, "counters": counters,
                "absent": sorted(set(self.absent))}

    def write(self, path, extra=None):
        doc = self.summary()
        doc["setup"] = self.setup
        doc["spans"] = self.spans
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)
