"""Layer tracing for the hardyops benchmark, installed from outside the package.

``Tracer.install()`` wraps the public functions of every hardyops layer in
every hardyops module namespace (and dict) that binds them, plus the ``quad``
name that ``coupling``, ``kernels`` and ``verify`` each bind and the ``eigh``
name ``discrete`` binds.  ``restore()`` puts every original back.

Spans nest: a span's self time is its duration minus the time its child spans
cover.  Every call is aggregated into per-name call counts and self times;
only the coarse calls (ops, CLI entry, checks, assembly, eigensolves) are
also kept as individual spans for the trace dump, because the hot scalar
functions run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Bindings of foreign functions traced under the name of the module binding them.
FOREIGN = {("hardyops.coupling", "quad"): "coupling.quad",
           ("hardyops.kernels", "quad"): "kernels.quad",
           ("hardyops.verify", "quad"): "verify.quad",
           ("hardyops.discrete", "eigh"): "discrete.eigh"}

LAYERS = ("specfun", "coupling", "kernels", "discrete", "verify", "cli")

# Calls kept as individual spans (by traced name or name prefix).
COARSE = ("op.", "cli.main", "verify.check_", "verify.get_dec", "verify.run_all",
          "discrete.assemble_form", "discrete.assemble_fullline_form",
          "discrete.eigendecompose", "discrete.hardy_quotient_min",
          "discrete.eigh")


def _public_functions(module) -> dict:
    """name -> function for the public functions a hardyops module defines."""
    return {name: fn for name, fn in vars(module).items()
            if isinstance(fn, types.FunctionType) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self_s, calls from other layers]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []          # (name, parent index, start, end)
        self._stack: list[list] = []          # [child_s, name, span index]
        self._installed: list[tuple] = []     # (container, key, original)

    # -- span bookkeeping --------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        stack, stats = self._stack, self.stats
        coarse = name.startswith(COARSE)
        entry = stats.setdefault(name, [0, 0.0, 0])
        layer = name.split(".")[0] + "."
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if coarse:
                span = len(self.spans)
                self.spans.append([name, self._open_span(), 0.0, 0.0])
            frame = [0.0, name, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                entry[0] += 1
                entry[1] += dt - frame[0]
                if parent is None or not parent[1].startswith(layer):
                    entry[2] += 1
                if coarse:
                    self.spans[span][2:] = [t0, t0 + dt]
            if hook is not None:
                hook(self, args, kwargs, result, parent)
            return result

        traced.__bench_traced__ = fn
        return traced

    def _open_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def span(self, name: str, fn):
        """Call fn() inside a span of the given name (used for benchmark ops)."""
        return self.wrap(name, fn)()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import hardyops.cli  # noqa: F401  (imports every layer)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("hardyops") and mod is not None}
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in _public_functions(modules[f"hardyops.{layer}"]).items():
                name = f"{layer}.{fname}"
                wrappers[fn] = self.wrap(name, fn, HOOKS.get(name))
        for (modname, attr), name in FOREIGN.items():
            mod = modules[modname]
            fn = getattr(mod, attr)
            self._set(vars(mod), attr, self.wrap(name, fn, HOOKS.get(name)))
        for mod in modules.values():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if _is_function(value) and value in wrappers:
                    self._set(ns, key, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if _is_function(v) and v in wrappers:
                            self._set(value, k, wrappers[v])

    def _set(self, container: dict, key, wrapper) -> None:
        self._installed.append((container, key, container[key]))
        container[key] = wrapper

    def restore(self) -> None:
        while self._installed:
            container, key, original = self._installed.pop()
            container[key] = original

    # -- results -----------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def entries(self, prefix: str) -> int:
        """Calls into a layer from outside it (its internal calls not counted)."""
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType)


def leftover_wrappers() -> list[str]:
    """Names still bound to a traced wrapper in any hardyops namespace or dict."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("hardyops") or mod is None:
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__bench_traced__"):
                found.append(f"{modname}.{key}")
            elif isinstance(value, dict):
                found += [f"{modname}.{key}[{k!r}]" for k, v in value.items()
                          if hasattr(v, "__bench_traced__")]
    return found


# ---------------------------------------------------------------------------
# Size-derived counters (computed from array shapes, not measured)
# ---------------------------------------------------------------------------

def _eigh_hook(tracer, args, kwargs, result, parent):
    n = args[0].shape[0]
    tracer.count("discrete.eigh.n3", float(n) ** 3)


def _assemble_hook(tracer, args, kwargs, result, parent):
    stiffness = result if hasattr(result, "nbytes") else result.stiffness
    tracer.count("discrete.assemble.bytes_computed", stiffness.nbytes)


def _eigendecompose_hook(tracer, args, kwargs, result, parent):
    if parent is not None and parent[1] == "verify.get_dec":
        tracer.count("verify.dec_cache.misses", 1)


HOOKS = {"discrete.eigh": _eigh_hook,
         "discrete.assemble_form": _assemble_hook,
         "discrete.assemble_fullline_form": _assemble_hook,
         "discrete.eigendecompose": _eigendecompose_hook}

# Function groups behind the per-layer metrics.
APPLY = tuple(f"discrete.{n}" for n in (
    "heat_apply", "power_apply", "sobolev_norm", "mass_norm", "riesz_kernel_entry",
    "commutator_with_multiplier", "commutator_norm"))
ASSEMBLE = ("discrete.assemble_form", "discrete.assemble_fullline_form")
ENVELOPES = tuple(f"kernels.{n}" for n in (
    "heat_envelope", "riesz_envelope", "diff_envelope", "diff_envelope_parts"))
QUADS = ("coupling.quad", "kernels.quad", "verify.quad")


def layer_metrics(tracer: Tracer, check_names) -> dict:
    """The benchmark's per-layer metrics from one traced pass."""
    t = tracer
    layer_self = {layer: sum(v[1] for k, v in t.stats.items()
                             if k.startswith(layer + ".") and k not in QUADS)
                  for layer in LAYERS}
    get_dec = t.calls("verify.get_dec")
    misses = t.counters.get("verify.dec_cache.misses", 0.0)
    discrete_other = layer_self["discrete"] - t.self_s(*ASSEMBLE) \
        - t.self_s("discrete.eigh") - t.self_s(*APPLY)
    return {
        # entries only: which internal helper a special function recurses
        # into depends on its argument, not on the caller
        "specfun.calls": t.entries("specfun."),
        "specfun.self_s": layer_self["specfun"],
        "coupling.exponent_p.calls": t.calls("coupling.exponent_p"),
        "coupling.self_s": layer_self["coupling"],
        "kernels.heat_exact.calls": t.calls("kernels.heat_exact_halfline"),
        "kernels.envelope.calls": t.calls(*ENVELOPES),
        "kernels.self_s": layer_self["kernels"],
        "coupling.quad.calls": t.calls("coupling.quad"),
        "kernels.quad.calls": t.calls("kernels.quad"),
        "verify.quad.calls": t.calls("verify.quad"),
        "quad.self_s": t.self_s(*QUADS),
        "discrete.assemble.calls": t.calls(*ASSEMBLE),
        "discrete.assemble.self_s": t.self_s(*ASSEMBLE),
        "discrete.assemble.bytes_computed":
            t.counters.get("discrete.assemble.bytes_computed", 0.0),
        "discrete.eigh.calls": t.calls("discrete.eigh"),
        "discrete.eigh.self_s": t.self_s("discrete.eigh"),
        "discrete.eigh.n3": t.counters.get("discrete.eigh.n3", 0.0),
        "discrete.apply.calls": t.calls(*APPLY),
        "discrete.apply.self_s": t.self_s(*APPLY),
        "discrete.other.self_s": discrete_other,
        "verify.dec_cache.hit_ratio": 1.0 - misses / get_dec if get_dec else 0.0,
        "verify.checks.calls": t.calls(*(f"verify.{n}" for n in check_names)),
        "verify.self_s": layer_self["verify"],
        "cli.calls": t.calls("cli.main"),
        "cli.self_s": layer_self["cli"],
    }
