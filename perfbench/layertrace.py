"""Per-layer spans and work counters, installed from outside the program.

Each hook replaces one function of a plethyray module at every site that
holds it (the defining module, every module that imported it by name, and
the package namespace), so ``plethyray.decider.feasible`` is hooked together
with ``plethyray.feasibility.feasible``.  Nothing in the program is edited.

A span hook records calls and self time: the span's duration minus the time
of the spans it caused.  Its own bookkeeping is charged to ``hook_s`` and
not to any layer, so that for a traced pass

    wall = sum of layer self times + hook_s + harness_s

where ``harness_s`` is the benchmark's own glue between program calls.  A
counter adds a work count derived from the arguments or the result; a hook
with a counter but no span name opens no span.  A counter that needs state
across calls is a class, instantiated once per tracer.  Counts depend only
on the inputs, never on the hardware.  A count named ``*_ratio`` is reported
per call of its span.

A hook whose target is gone (renamed or deleted by a later change), or whose
counter can no longer read its arguments, is reported as absent rather than
as zero.
"""

from __future__ import annotations

import importlib
import sys
from math import comb, prod
from time import perf_counter

_INT64_SAFE = 2**62


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# --- counters: (args, kwargs, result) -> {metric: increment} -----------------


def _kernel_work(args, kwargs, result):
    contents = _arg(args, kwargs, 0, "contents")
    d = _arg(args, kwargs, 1, "d")
    caps = _arg(args, kwargs, 2, "caps")
    usable = [m for m in contents if all(mi <= ci for mi, ci in zip(m, caps))]
    if d < 1 or not caps or not usable:
        return {}
    cells = d * sum(prod(ci - mi + 1 for mi, ci in zip(m, caps)) for m in usable)
    bigint = comb(len(usable) + d - 1, d) >= _INT64_SAFE
    return {"kernels.dp_cell_updates": cells, "kernels.bigint_path_calls": int(bigint)}


def _sample_points(args, kwargs, result):
    return {"rays.sample_ray.points": _arg(args, kwargs, 1, "s_max") + 1}


def _fit_success(args, kwargs, result):
    return {"quasipoly.fit.success_ratio": int(type(result).__name__ == "QuasiPolynomial")}


class _ContentsReuse:
    """Calls of inner_monomial_contents whose arguments came before in the pass."""

    def __init__(self) -> None:
        self.seen: set = set()

    def __call__(self, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        reused = key in self.seen
        self.seen.add(key)
        return {"plethysm.inner_monomial_contents.reuse_ratio": int(reused)}


def _constraints_in(args, kwargs, result):
    return {"feasibility.constraints_in": len(_arg(args, kwargs, 0, "system").constraints)}


def _fm_pairs(args, kwargs, result):
    constraints = _arg(args, kwargs, 0, "constraints")
    var = _arg(args, kwargs, 1, "var")
    lowers = sum(1 for cons in constraints if cons.coeffs[var] < 0)
    uppers = sum(1 for cons in constraints if cons.coeffs[var] > 0)
    return {"feasibility.fm_pairs": lowers * uppers}


def _branch_steps(args, kwargs, result):
    return {"decider.branch_steps": len(result[1])}


# (module, function, span name or None for a counter-only hook, counter)
HOOKS = (
    ("plethyray.kernels", "count_capped_multisets", "kernels.count_capped_multisets",
     _kernel_work),
    ("plethyray.plethysm", "weight_count", "plethysm.weight_count", None),
    ("plethyray.plethysm", "_pair_weight_count", "plethysm.pair_count", None),
    ("plethyray.plethysm", "inner_monomial_contents", "plethysm.inner_monomial_contents",
     _ContentsReuse),
    ("plethyray.plethysm", "plethysm_multiplicity", "plethysm.plethysm_multiplicity", None),
    ("plethyray.rays", "sample_ray", "rays.sample_ray", _sample_points),
    ("plethyray.rays", "discover_quasipoly", "rays.discover_quasipoly", None),
    ("plethyray.quasipoly", "fit", "quasipoly.fit", _fit_success),
    ("plethyray.feasibility", "feasible", "feasibility.feasible", _constraints_in),
    ("plethyray.feasibility", "functional_bound", "feasibility.functional_bound",
     _constraints_in),
    ("plethyray.feasibility", "_eliminate", None, _fm_pairs),
    ("plethyray.decider", "_phase_n", "decider.phase_n", _branch_steps),
    ("plethyray.decider", "_phase_e", "decider.phase_e", None),
    ("plethyray.decider", "decide_inhomogeneous_1d", "decider.decide", None),
    ("plethyray.decider", "decide_homogeneous_1d", "decider.decide", None),
    ("plethyray.decider", "replay_certificate", "decider.replay_certificate", None),
    ("plethyray.intervals", "periodic_count_qp", "intervals.periodic_count_qp", None),
    ("plethyray.intervals", "verify_sum_decomposition", "intervals.verify_sum_decomposition",
     None),
    ("plethyray.cli", "main", "cli", None),
)

# The counters each hook feeds, for reporting a hook that is absent.
COUNTER_METRICS = {
    _kernel_work: ("kernels.dp_cell_updates", "kernels.bigint_path_calls"),
    _sample_points: ("rays.sample_ray.points",),
    _fit_success: ("quasipoly.fit.success_ratio",),
    _ContentsReuse: ("plethysm.inner_monomial_contents.reuse_ratio",),
    _constraints_in: ("feasibility.constraints_in",),
    _fm_pairs: ("feasibility.fm_pairs",),
    _branch_steps: ("decider.branch_steps",),
}


class Tracer:
    """Collects spans and counters of one pass; create, install, run, report."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = [[0.0]]  # per open span: child time
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.hook_s = 0.0
        self.absent: set[str] = set()

    def _record(self, name: str, self_time: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time

    def _count(self, counter, metrics, args, kwargs, result) -> None:
        try:
            increments = counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.absent.update(metrics)
            return
        for key, value in increments.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, counter, metrics):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                own = elapsed - frame[0]
                self._record(name, own)
                if ok and counter is not None:
                    self._count(counter, metrics, args, kwargs, result)
                total = perf_counter() - t_in
                stack[-1][0] += total
                self.hook_s += total - elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter_only(self, fn, counter, metrics):
        stack = self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = perf_counter()
            self._count(counter, metrics, args, kwargs, result)
            spent = perf_counter() - t0
            stack[-1][0] += spent  # keep the bookkeeping out of the caller's self time
            self.hook_s += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook target at every plethyray site that holds it."""
        for module_name, attr, name, counter in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            target = getattr(module, attr, None)
            metrics = COUNTER_METRICS.get(counter, ())
            if not callable(target):
                self.absent.add(name if name is not None else attr)
                self.absent.update(metrics)
                continue
            if isinstance(counter, type):
                counter = counter()
            if name is None:
                wrapper = self.counter_only(target, counter, metrics)
            else:
                wrapper = self.span(name, target, counter, metrics)
                self.calls.setdefault(name, 0)
                self.self_s.setdefault(name, 0.0)
            for metric in metrics:
                self.counts.setdefault(metric, 0)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "plethyray" and not mod_name.startswith("plethyray."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)

    def report(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass, with the wall-time accounting."""
        metrics: dict[str, float] = {}
        for name in self.calls:
            metrics[f"{name}.calls"] = self.calls[name]
            metrics[f"{name}.self_s"] = self.self_s[name]
        for name, count in self.counts.items():
            if name.endswith("_ratio"):
                calls = self.calls[name.rsplit(".", 1)[0]]
                metrics[name] = count / calls if calls else 0.0
            else:
                metrics[name] = count
        for name in self.absent:
            metrics.pop(name, None)
        layers = sum(self.self_s.values())
        accounted = self.stack[0][0]
        metrics["trace.hook_s"] = self.hook_s
        metrics["trace.harness_s"] = wall_s - accounted
        metrics["trace.layers_s"] = layers
        metrics["trace.wall_s"] = wall_s
        return {"metrics": metrics, "absent": sorted(self.absent)}
