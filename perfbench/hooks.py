"""Per-layer timing from outside the package.

Each hook replaces one function of ``nncbound`` where its caller looks
it up (``from x import f`` copies the name into the caller's module, so
patching the defining module alone would time nothing).  A hook whose
target no longer exists is reported absent instead of failing, with
every metric it feeds, so refactors that delete or move a function keep
the benchmark running and no metric reads as a partial figure.

A layer's ``s`` is its inclusive time; ``self_s`` subtracts the time of
wrapped calls made inside it.  A call into a layer that is already on
the stack (``load_input_family`` calling ``load_distribution``) is not
counted again.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Aggregates spans by layer; the stack holds child time per frame."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [layer, child seconds]
        self.top_level_s = 0.0

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def span(self, layer: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        stats = self.stats(layer)

        def wrapper(*args, **kwargs):
            if any(frame[0] == layer for frame in self._stack):
                return fn(*args, **kwargs)
            if on_call is not None:
                args, kwargs = on_call(stats, args, kwargs)
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stats.calls += 1
                stats.s += dt
                stats.self_s += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.top_level_s += dt
            if on_result is not None:
                on_result(stats, args, result)
            return result

        return wrapper

    def counter(self, layer: str, key: str, fn: Callable) -> Callable:
        """Count calls to ``fn`` under ``layer``'s ``key`` without a span."""
        stats = self.stats(layer)

        def wrapper(*args, **kwargs):
            stats.add(key, 1)
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# what each layer counts besides calls and time


def _count_objective(stats, args, kwargs):
    if not args:
        return args, kwargs
    f = args[0]

    def objective(x):
        stats.add("objective_calls", 1)
        return f(x)

    return (objective,) + tuple(args[1:]), kwargs


def _count_len(key):
    def on_result(stats, _args, result):
        with contextlib.suppress(TypeError):
            stats.add(key, len(result))

    return on_result


def _count_states(stats, _args, result):
    probs = getattr(result, "probs", None)
    if probs is not None:
        stats.add("states", probs.size)


def _count_bytes(stats, args, kwargs):
    if args and isinstance(args[0], (str, os.PathLike)):
        with contextlib.suppress(OSError):
            stats.add("bytes", os.path.getsize(args[0]))
    return args, kwargs


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str  # "name" or "Class.name"
    on_call: Any = None
    on_result: Any = None
    counts: tuple[str, ...] = ()  # keys that on_call / on_result add to
    span: bool = True  # False: only count calls, under counts[0]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"

    def metrics(self) -> set[str]:
        """Names of the layer metrics this hook feeds."""
        names = {f"{self.layer}.{key}" for key in self.counts}
        if self.span:
            names |= {f"{self.layer}.{stat}" for stat in ("calls", "s", "self_s")}
        return names


HOOKS = (
    Hook("cli.write_csv", "nncbound.cli", "_write_csv"),
    Hook("gauss_bounds.irc_rates", "nncbound.cli", "irc_rates"),
    Hook("gauss_bounds.twrc_rates", "nncbound.cli", "twrc_rates"),
    Hook("gauss_bounds.scalar_maximize", "nncbound.gauss_bounds", "scalar_maximize",
         on_call=_count_objective, counts=("objective_calls",)),
    Hook("netmodel.max_weighted_sum", "nncbound.gauss_bounds", "max_weighted_sum"),
    Hook("gauss_bounds.gap_certificate", "nncbound.cli", "gap_certificate",
         on_result=_count_len("cuts_certified"), counts=("cuts_certified",)),
    Hook("infocalc.gauss_cut_rate", "nncbound.gauss_bounds", "gauss_cut_rate"),
    Hook("netmodel.enumerate_cutsets", "nncbound.cli", "enumerate_cutsets",
         on_result=_count_len("cuts"), counts=("cuts",)),
    Hook("netmodel.enumerate_cutsets", "nncbound.gauss_bounds", "enumerate_cutsets",
         on_result=_count_len("cuts"), counts=("cuts",)),
    Hook("netmodel.enumerate_cutsets", "nncbound.dm_bounds", "enumerate_cutsets",
         on_result=_count_len("cuts"), counts=("cuts",)),
    Hook("infocalc.entropy", "nncbound.infocalc", "EntropyCache.entropy"),
    # EntropyCache.entropy calls the module-level entropy() only on a miss.
    Hook("infocalc.entropy", "nncbound.infocalc", "entropy", counts=("misses",), span=False),
    Hook("infocalc.assemble_joint", "nncbound.dm_bounds", "assemble_joint",
         on_result=_count_states, counts=("states",)),
    Hook("infocalc.joint_from_inputs", "nncbound.dm_bounds", "joint_from_inputs"),
    Hook("dm_bounds.nnc_theorem2_bound", "nncbound.cli", "nnc_theorem2_bound",
         on_result=_count_len("entries"), counts=("entries",)),
    Hook("dm_bounds.cutset_outer_bound", "nncbound.cli", "cutset_outer_bound",
         on_result=_count_len("entries"), counts=("entries",)),
    Hook("configio.load", "nncbound.configio", "load_network",
         on_call=_count_bytes, counts=("bytes",)),
    Hook("configio.load", "nncbound.configio", "load_distribution",
         on_call=_count_bytes, counts=("bytes",)),
    Hook("configio.load", "nncbound.configio", "load_input_family",
         on_call=_count_bytes, counts=("bytes",)),
)


def _resolve(hook: Hook):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


def missing_hooks() -> list[Hook]:
    return [h for h in HOOKS if _resolve(h) is None]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every resolvable hook for the duration of the block."""
    patched = []
    try:
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                continue
            owner, name, fn = found
            stats = tracer.stats(hook.layer)
            for key in hook.counts:
                stats.counts.setdefault(key, 0)
            if hook.span:
                wrapper = tracer.span(hook.layer, fn, hook.on_call, hook.on_result)
            else:
                wrapper = tracer.counter(hook.layer, hook.counts[0], fn)
            patched.append((owner, name, fn))
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, fn in reversed(patched):
            setattr(owner, name, fn)
