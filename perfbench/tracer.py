"""Span tracer for the benchmark's traced cycles.

`Tracer.install` replaces every public function of the eight pentaform layers
(core, partition, strategy, game, convergence, stationary, fileio, cli) with
a recording wrapper, in every pentaform module namespace that binds it.  The
modules import each other's functions by `from ... import`, so `game.subroots`
and `partition.subroots` are separate bindings of one function; patching only
the defining module would miss the calls made through the other names.
`numbers` (exact arithmetic) and `fixtures` (inputs only) are not wrapped:
their time counts towards their callers.

Spans are kept in memory as flat arrays (start, end, parent id, name id) and
written out by `dump`.  Self time of a span is its duration minus the time
covered by its child spans.  Spans are recorded only inside `op()`, so input
generation between ops leaves no trace.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import Counter

LAYERS = ("core", "partition", "strategy", "game", "convergence", "stationary", "fileio", "cli")
LRU_CACHED = ("subroots", "subform", "piece_partition")


def _defining_layer(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) == 2 and parts[0] == "pentaform" and parts[1] in LAYERS:
        return parts[1]
    return None


def _is_public_function(name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name_id = array.array("q")
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()           # by defining layer.function
        self.binding_calls: Counter = Counter()   # by binding module.function
        self.counters: Counter = Counter()
        self.op_total_s: Counter = Counter()      # inclusive time per name, current op
        self._fileio_depth = 0
        self._bounded_systems: dict[int, object] = {}
        self._lru = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import pentaform

        modules = [pentaform] + [
            importlib.import_module(f"pentaform.{info.name}")
            for info in pkgutil.iter_modules(pentaform.__path__)
        ]
        from pentaform import partition

        self._lru = {name: getattr(partition, name) for name in LRU_CACHED}
        wrappers: dict[tuple[int, str], object] = {}
        for module in modules:
            binding = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                layer = _defining_layer(obj)
                if layer is None or not _is_public_function(attr, obj):
                    continue
                key = (id(obj), binding)
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, f"{layer}.{obj.__name__}", f"{binding}.{obj.__name__}")
                setattr(module, attr, wrappers[key])

    def _span_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name: str, binding: str):
        name_idx = self._span_id(name)
        hook = self._hook_for(name)
        is_fileio = name.startswith("fileio.") and name.split(".")[1].startswith(("load_", "save_"))

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self.binding_calls[binding] += 1
            if is_fileio:
                self._fileio_depth += 1
            sid = self._enter(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(sid, name)
                if is_fileio:
                    self._fileio_depth -= 1
            if is_fileio and self._fileio_depth == 0:
                with contextlib.suppress(OSError, TypeError):
                    self.counters["fileio.bytes"] += os.path.getsize(args[0])
            if hook is not None:
                result = hook(args, result, binding)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def _enter(self, name_idx: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1][0])
        self.name_id.append(name_idx)
        self.end.append(0.0)
        self._stack.append([sid, 0.0])
        self.start.append(time.perf_counter())
        return sid

    def _leave(self, sid: int, name: str) -> None:
        t1 = time.perf_counter()
        _, covered = self._stack.pop()
        self.end[sid] = t1
        duration = t1 - self.start[sid]
        self._stack[-1][1] += duration
        self.self_s[name] += duration - covered
        self.op_total_s[name] += duration

    # -- counters recorded at layer boundaries --------------------------------

    def _hook_for(self, name: str):
        if name == "core.validate":
            return self._count_validated
        if name == "game.is_pure_nash":
            return self._count_accepted
        if name == "game.enumerate_piece_profiles":
            return self._count_profiles
        if name == "stationary.conceivable_bounds":
            return self._count_policies
        return None

    def _count_validated(self, args, result, binding):
        self.counters["core.validate.quintuples"] += len(result)
        return result

    def _count_accepted(self, args, result, binding):
        if result:
            self.counters[f"{binding}.accepted"] += 1
        return result

    def _count_profiles(self, args, result, binding):
        def counted():
            for profile in result:
                self.counters["game.profiles_enumerated"] += 1
                yield profile

        return counted()

    def _count_policies(self, args, result, binding):
        system = args[0]
        if id(system) not in self._bounded_systems and type(system.model).__name__ == "DiscountedAccumulation":
            self._bounded_systems[id(system)] = system
            policies = 1
            for cls in system.classes.values():
                policies *= len(cls.exits)
            self.counters["stationary.policies"] += policies
        return result

    # -- ops --------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one benchmark op; its self time is benchmark overhead."""
        before = {name: lru.cache_info() for name, lru in self._lru.items()}
        self.op_total_s = Counter()
        name = f"bench.{kind}"
        name_idx = self._span_id(name)
        sid = len(self.start)
        self.parent.append(-1)
        self.name_id.append(name_idx)
        self.end.append(0.0)
        self._stack.append([sid, 0.0])
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _, covered = self._stack.pop()
            self.end[sid] = t1
            duration = t1 - self.start[sid]
            self.self_s[name] += duration - covered
            self._bounded_systems.clear()
            for lru_name, lru in self._lru.items():
                info = lru.cache_info()
                self.counters[f"partition.{lru_name}.hits"] += info.hits - before[lru_name].hits
                self.counters[f"partition.{lru_name}.misses"] += info.misses - before[lru_name].misses

    # -- output -------------------------------------------------------------------

    def dump(self, stem) -> None:
        """Write the spans as <stem>.json (names, layout) plus <stem>.bin (arrays)."""
        header = {
            "count": len(self.start),
            "names": self.names,
            "layout": "float64 start[count], float64 end[count], int64 parent[count], "
                      "int64 name[count]; perf_counter seconds; parent -1 marks an op root",
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{stem}.bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name_id):
                arr.tofile(fh)
