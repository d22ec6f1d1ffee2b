"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the entry points of each layer with wrappers
that pass ``*args, **kwargs`` through unchanged and record spans and counts
around the call; ``uninstall`` puts the originals back.  A wrapped entry
point that is missing, renamed or lost a parameter the wrapper reads raises
``TraceError`` naming it, so a layer never reports a silent zero.

Spans nest per thread.  A span's self time is its duration minus the time
covered by the spans it directly contains.
"""

import dataclasses
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "nonlocal_bbm"


class TraceError(RuntimeError):
    pass


PER_LAYER_UNITS = {
    "fields.eval_points": "count",
    "fields.eval_s": "s",
    "fields.grad_s": "s",
    "fields.zero_share": "1",
    "operators.inner.calls": "count",
    "operators.inner.points": "count",
    "operators.inner.pairs": "count",
    "operators.inner.self_s": "s",
    "operators.riesz.nodes": "count",
    "operators.riesz.self_s": "s",
    "operators.dfield.self_s": "s",
    "operators.far.points": "count",
    "operators.far.pairs": "count",
    "operators.far.s": "s",
    "operators.halved_s": "s",
    "quadrature.s": "s",
    "cli.io_s": "s",
    "limits.target_s": "s",
    "trace.overhead_s": "s",
}


def _param_getter(fn, qualname, *names):
    """Return args -> tuple of the named parameters' values."""
    sig = inspect.signature(fn)
    for name in names:
        if name not in sig.parameters:
            raise TraceError(f"entry point {qualname} has no parameter {name!r}")

    def get(args, kwargs):
        bound = sig.bind_partial(*args, **kwargs).arguments
        return tuple(bound.get(n) for n in names)

    return get


class Tracer:
    def __init__(self):
        self._patches = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    # -- accounting -------------------------------------------------------

    def reset(self):
        self.counts = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self._halved = set()
        self._halved_keep = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.inner_depth = 0
            st.halved_depth = 0
            st.halved_start = 0.0
        return st

    def _add(self, key, n):
        with self._lock:
            self.counts[key] += n

    def _span(self, name, fn, args, kwargs):
        stack = self._state().stack
        frame = [0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            with self._lock:
                self.incl[name] += dur
                self.self_time[name] += dur - frame[0]

    def _maybe_halved(self, spec, call):
        """Run ``call``; charge it to operators.halved_s when ``spec`` came
        from ``QuadratureSpec.halved`` and no halved call encloses it."""
        st = self._state()
        if id(spec) not in self._halved:
            return call()
        if st.halved_depth == 0:
            st.halved_start = time.perf_counter()
        st.halved_depth += 1
        try:
            return call()
        finally:
            st.halved_depth -= 1
            if st.halved_depth == 0:
                with self._lock:
                    self.incl["halved"] += time.perf_counter() - st.halved_start

    # -- wrappers ---------------------------------------------------------

    def wrap_field(self, f):
        """A copy of a TestField whose eval and grad are traced."""
        ev, gr, dim = f.eval, f.grad, f.dim

        def traced_eval(x, *args, **kwargs):
            out = self._span("fields.eval", ev, (x,) + args, kwargs)
            npts = int(np.size(out))
            self._add("fields.eval_points", npts)
            self._add("fields.zero_points", npts - int(np.count_nonzero(out)))
            if self._state().inner_depth:
                self._add("inner.pairs", npts)
            return out

        def traced_grad(x, *args, **kwargs):
            out = self._span("fields.grad", gr, (x,) + args, kwargs)
            if self._state().inner_depth:
                self._add("inner.pairs", int(np.size(out)) // dim)
            return out

        try:
            return dataclasses.replace(f, eval=traced_eval, grad=traced_grad)
        except TypeError as exc:
            raise TraceError(f"field {f!r} is not a dataclass with eval/grad: {exc}") from exc

    def _patch(self, owner, name, make_wrapper, modules=None):
        """Replace ``owner.name`` by a wrapper in every module of the package
        that holds it (or only in ``modules``)."""
        qualname = f"{getattr(owner, '__name__', owner)}.{name}"
        try:
            orig = getattr(owner, name)
        except AttributeError:
            raise TraceError(f"entry point {qualname} is missing") from None
        wrapper = make_wrapper(orig, qualname)
        if modules is None:
            modules = [
                m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
            ]
        hits = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))
                    hits += 1
        if hits == 0:
            raise TraceError(f"entry point {qualname} is not referenced by {PACKAGE}")

    def _simple(self, span):
        def make(orig, qualname):
            def wrapper(*args, **kwargs):
                return self._span(span, orig, args, kwargs)
            return wrapper
        return make

    def install(self):
        import nonlocal_bbm.cli as cli
        import nonlocal_bbm.fields as fields
        import nonlocal_bbm.operators as ops
        import nonlocal_bbm.quadrature as quad

        if self._patches:
            raise TraceError("tracer installed twice")

        def inner(orig, qualname):
            get = _param_getter(orig, qualname, "X", "spec")

            def wrapper(*args, **kwargs):
                X, spec = get(args, kwargs)
                st = self._state()
                self._add("inner.calls", 1)
                self._add("inner.points", int(np.shape(X)[0]))

                def call():
                    st.inner_depth += 1
                    try:
                        return self._span("inner", orig, args, kwargs)
                    finally:
                        st.inner_depth -= 1

                return self._maybe_halved(spec, call)

            return wrapper

        def riesz(orig, qualname):
            get = _param_getter(orig, qualname, "g", "spec")
            sig = inspect.signature(orig)

            def wrapper(*args, **kwargs):
                g, spec = get(args, kwargs)
                g_eval = g.eval

                def counted_eval(y, *a, **k):
                    self._add("riesz.nodes", int(np.size(y)) // g.dim)
                    return self._span("riesz.g", g_eval, (y,) + a, k)

                bound = sig.bind(*args, **kwargs)
                bound.arguments["g"] = dataclasses.replace(g, eval=counted_eval)
                return self._maybe_halved(
                    spec, lambda: self._span("riesz", orig, bound.args, bound.kwargs)
                )

            return wrapper

        def composed(orig, qualname):
            get = _param_getter(orig, qualname, "spec")

            def wrapper(*args, **kwargs):
                (spec,) = get(args, kwargs)
                return self._maybe_halved(spec, lambda: orig(*args, **kwargs))

            return wrapper

        def dfield(orig, qualname):
            def wrapper(*args, **kwargs):
                g = orig(*args, **kwargs)
                g_eval = g.eval

                def traced(y, *a, **k):
                    return self._span("dfield", g_eval, (y,) + a, k)

                return dataclasses.replace(g, eval=traced)

            return wrapper

        def halved(orig, qualname):
            def wrapper(spec_self, *args, **kwargs):
                out = orig(spec_self, *args, **kwargs)
                with self._lock:
                    self._halved.add(id(out))
                    self._halved_keep.append(out)
                return out

            return wrapper

        def far_kernel(orig, qualname):
            tracer = self

            class TracedKernel(orig):
                def __init__(self, *args, **kwargs):
                    tracer._span("far", super().__init__, args, kwargs)
                    if not hasattr(self, "Z"):
                        raise TraceError(f"{qualname} has no attribute 'Z'")

                def __call__(self, Y, *args, **kwargs):
                    n = int(np.atleast_2d(Y).shape[0])
                    tracer._add("far.points", n)
                    tracer._add("far.pairs", n * int(self.Z.shape[0]))
                    return tracer._span("far", super().__call__, (Y,) + args, kwargs)

            return TracedKernel

        def make_field(orig, qualname):
            def wrapper(*args, **kwargs):
                return self.wrap_field(orig(*args, **kwargs))

            return wrapper

        try:
            self._patch(ops, "_dalpha_integral_batch", inner)
            self._patch(ops, "_riesz_value", riesz)
            self._patch(ops, "_composed_value", composed)
            self._patch(ops, "frac_derivative_field", dfield)
            self._patch(ops, "_SupportGridKernel", far_kernel)
            self._patch(quad.QuadratureSpec, "halved", halved, modules=[quad.QuadratureSpec])
            self._patch(quad, "build_sphere_rule", self._simple("quadrature"))
            self._patch(quad, "radial_ladder", self._simple("quadrature"))
            self._patch(ops, "riesz_of_gradient", self._simple("limits.target"))
            self._patch(fields, "w11_norms", self._simple("limits.target"))
            self._patch(cli, "parse_config", self._simple("cli.io"))
            self._patch(cli, "_write_csv", self._simple("cli.io"))
            self._patch(cli, "_write_json", self._simple("cli.io"))
            # only the CLI's own lookup: make_field recurses for a base field,
            # whose evaluations already sit inside the outer field's span
            self._patch(fields, "make_field", make_field, modules=[cli])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def metrics(self):
        c, t, s = self.counts, self.incl, self.self_time
        points = c["fields.eval_points"]
        return {
            "fields.eval_points": points,
            "fields.eval_s": t["fields.eval"],
            "fields.grad_s": t["fields.grad"],
            "fields.zero_share": c["fields.zero_points"] / points if points else 0.0,
            "operators.inner.calls": c["inner.calls"],
            "operators.inner.points": c["inner.points"],
            "operators.inner.pairs": c["inner.pairs"],
            "operators.inner.self_s": s["inner"],
            "operators.riesz.nodes": c["riesz.nodes"],
            "operators.riesz.self_s": s["riesz"],
            "operators.dfield.self_s": s["dfield"],
            "operators.far.points": c["far.points"],
            "operators.far.pairs": c["far.pairs"],
            "operators.far.s": t["far"],
            "operators.halved_s": t["halved"],
            "quadrature.s": t["quadrature"],
            "cli.io_s": t["cli.io"],
            "limits.target_s": t["limits.target"],
        }
