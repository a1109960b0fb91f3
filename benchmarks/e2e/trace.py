"""Per-layer host time for the end-to-end benchmark, from ``cProfile``.

A traced run profiles its set-up and every op with ``cProfile``; calls
into builtins are folded into their Python caller.  Each function's self
time and calls are then charged to one of the 23 layers below, each named
after the ``repro`` module it stands for:

* a function defined in a layer's module belongs to that layer
  (``workloads`` is the whole package);
* ``Interpreter.fast_forward`` and the basic blocks it compiles (code
  named ``<predecode:...>``) are ``isa.interp.fast_forward``;
* any other function -- ``DynInst``, ``Counters``, the assembler, the
  standard library -- is charged to the layers of its callers, in
  proportion to the time each caller spent in it, following a chain of
  such functions up to the first layer;
* ``execute_op`` and ``branch_taken`` are charged that way too, except
  that under ``pipeline.core`` they are the core's execute stage,
  ``isa.interp.execute``.

Nothing in the simulator is patched.  The profiler adds a cost to every
Python call, so a layer that makes many small calls reads a larger share
than it has unprofiled; the end-to-end metrics are always measured
untraced.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import sys
from typing import Dict, List, Optional, Tuple

#: The layers, each named after the ``repro`` module it stands for.
LAYERS = (
    "workloads", "isa.predecode", "isa.interp", "isa.interp.fast_forward",
    "isa.interp.execute", "pipeline.core", "pipeline.scheduler",
    "pipeline.rename", "core.subsystem", "core.sfc", "core.mdt",
    "core.store_fifo", "core.lsq", "core.load_replay", "core.predictors",
    "memory.cache", "memory.main_memory", "branch.gshare",
    "checkpoint.sampling", "checkpoint.arch", "checkpoint.store",
    "harness.experiment", "verify.fuzzer",
)

#: Layers whose constructor cost is reported on its own (``init_s``).
INIT_LAYERS = ("pipeline.core", "pipeline.scheduler", "pipeline.rename",
               "core.sfc", "core.mdt", "core.predictors", "memory.cache",
               "branch.gshare")

INTERP = "repro.isa.interp"
#: Filename prefix of the blocks fast-forward compiles.
BLOCK_PREFIX = "<predecode:"
#: The interpreter functions the pipeline executes instructions with.
EXECUTE_FUNCTIONS = ("execute_op", "branch_taken")
EXECUTE_CALLER = "pipeline.core"

Func = Tuple[str, int, str]


class TracerError(RuntimeError):
    """A layer's module or function no longer exists."""


def check_layers(layers=LAYERS) -> None:
    """Raise :class:`TracerError` naming every layer whose module or
    function is missing, so a rename cannot drop a layer silently."""
    missing = []
    for layer in layers:
        module_name = INTERP if layer.startswith("isa.interp.") \
            else f"repro.{layer}"
        try:
            importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{layer} (no module {module_name})")
    interp = importlib.import_module(INTERP)
    if not callable(getattr(interp.Interpreter, "fast_forward", None)):
        missing.append("isa.interp.fast_forward (no "
                       "Interpreter.fast_forward)")
    caller = importlib.import_module(f"repro.{EXECUTE_CALLER}")
    for name in EXECUTE_FUNCTIONS:
        function = getattr(interp, name, None)
        if function is None or vars(caller).get(name) is not function:
            missing.append(f"isa.interp.execute (repro.{EXECUTE_CALLER} "
                           f"does not call {INTERP}.{name})")
    if missing:
        raise TracerError("layers not found: " + ", ".join(missing))


class Profile(cProfile.Profile):
    """A profile of the traced stretches of a run (use it as a context
    manager around each); builtin calls count in their caller."""

    def __init__(self):
        check_layers()
        super().__init__(builtins=False)

    def attribution(self) -> "Attribution":
        return Attribution(pstats.Stats(self).stats)


class Attribution:
    """Per-layer self time, calls and constructor time of one profile
    (``pstats`` data: function -> (primitive calls, calls, self s,
    inclusive s, callers -> the same four for that caller))."""

    def __init__(self, stats: Dict[Func, tuple]):
        self.stats = stats
        files = {getattr(module, "__file__", None): name
                 for name, module in list(sys.modules.items())
                 if name.split(".")[0] == "repro"}
        self._module = {func: files.get(func[0]) for func in stats}
        self._owners: Dict[Func, Dict[str, float]] = {}
        self._callees: Dict[Func, List[Tuple[Func, tuple]]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0.0 for layer in LAYERS}
        self.total_s = 0.0
        for func, (_cc, calls, self_time, _ct, callers) in stats.items():
            self.total_s += self_time
            for owner, weight in self._owner(func).items():
                self.self_s[owner] += self_time * weight
                self.calls[owner] += calls * weight
            for caller, edge in callers.items():
                self._callees.setdefault(caller, []).append((func, edge))

    def layer_of(self, func: Func) -> Optional[str]:
        """The layer a function is defined in (None outside all)."""
        filename, _line, name = func
        if filename.startswith(BLOCK_PREFIX):
            return "isa.interp.fast_forward"
        module = self._module.get(func)
        if module is None:
            return None
        if module == INTERP and name == "fast_forward":
            return "isa.interp.fast_forward"
        if module == INTERP and name in EXECUTE_FUNCTIONS:
            return None
        path = module.split(".")[1:]
        for depth in range(len(path), 0, -1):
            layer = ".".join(path[:depth])
            if layer in LAYERS:
                return layer
        return None

    def _owner(self, func: Func, seen=frozenset()) -> Dict[str, float]:
        """The layers a function works for, as shares summing to 1 (to
        nothing for code that no layer called)."""
        owners = self._owners.get(func)
        if owners is not None:
            return owners
        layer = self.layer_of(func)
        if layer is not None:
            owners = {layer: 1.0}
        else:
            owners = {}
            callers = self.stats[func][4] if func in self.stats else {}
            total = sum(edge[3] for edge in callers.values())
            if total > 0 and func not in seen:
                for caller, edge in callers.items():
                    for owner, weight in self._owner(
                            caller, seen | {func}).items():
                        owners[owner] = owners.get(owner, 0.0) \
                            + weight * edge[3] / total
            if self._module.get(func) == INTERP and \
                    func[2] in EXECUTE_FUNCTIONS and \
                    EXECUTE_CALLER in owners:
                owners["isa.interp.execute"] = owners.pop(EXECUTE_CALLER)
        self._owners[func] = owners
        return owners

    def init_s(self, layer: str) -> float:
        """Time the layer's constructors spent in their own module's code:
        each ``__init__``'s inclusive time minus its calls into other
        modules."""
        total = 0.0
        for func, entry in self.stats.items():
            if func[2] != "__init__" or self.layer_of(func) != layer:
                continue
            total += entry[3]
            for callee, edge in self._callees.get(func, ()):
                if self._module.get(callee) != self._module[func]:
                    total -= edge[3]
        return total

    def function(self, module: str, name: str) -> Tuple[int, float]:
        """(calls, inclusive seconds) of the functions called ``name`` in
        ``module``."""
        calls, inclusive = 0, 0.0
        for func, (_cc, nc, _tt, ct, _callers) in self.stats.items():
            if func[2] == name and self._module.get(func) == module:
                calls += nc
                inclusive += ct
        return calls, inclusive
