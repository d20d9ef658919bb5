"""Per-layer attribution of a cProfile run, by source module.

Every profiled function is either a *layer frame* (a module under
``src/repro/`` or one of the benchmark's own files, mapped to a layer by
:func:`layer_of`), a *stdlib frame* (Python code outside the repo), or a
*builtin* (C code: ``len``, ``struct.unpack_from``, ``list.append``...).

* A layer frame's self time goes to its layer.
* A builtin's self time is charged, edge by edge, to the layer of the
  frame that called it.  When that caller is itself a builtin or a
  stdlib frame, the charge passes on to *its* callers in proportion to
  their share of its cumulative time.  Time a builtin spent in calls
  with no recorded caller was spent in calls from the benchmark's own
  frame that enabled the profiler, so it is harness cost
  (``workloads``).
* A stdlib frame's own self time is ``unattributed``; no builtin self
  time is charged there.

``calls`` counts calls that enter a layer's functions from a different
layer (callers resolved the same way), per the profiler's caller edges.
"""

import os
import pstats

LAYERS = ("kernel", "kernel.ioports", "kernel.netdev", "kernel.fastpath",
          "devices", "drivers", "core", "slicer", "recovery", "fleet",
          "workloads", "unattributed")

_KERNEL_SPLIT = {
    "kernel/ioports.py": "kernel.ioports",
    "kernel/netdev.py": "kernel.netdev",
    "kernel/napi.py": "kernel.netdev",
    "kernel/fastpath.py": "kernel.fastpath",
}

_BY_PACKAGE = {
    "kernel": "kernel",
    # kstat and the tracepoint layer are kernel facilities.
    "health": "kernel",
    "trace": "kernel",
    "devices": "devices",
    "drivers": "drivers",
    "core": "core",
    "slicer": "slicer",
    "recovery": "recovery",
    "faults": "recovery",
    "fleet": "fleet",
    "workloads": "workloads",
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(path, repro_dir):
    """The layer of a source file, or None for code outside the repo."""
    norm = os.path.abspath(path)
    if norm.startswith(_BENCH_DIR + os.sep):
        return "workloads"
    if not norm.startswith(repro_dir + os.sep):
        return None
    rel = norm[len(repro_dir) + 1:].replace(os.sep, "/")
    if rel in _KERNEL_SPLIT:
        return _KERNEL_SPLIT[rel]
    if rel == "drivers/decaf/plumbing.py":
        return "core"
    package = rel.split("/", 1)[0]
    # Tooling packages the benchmark never drives (conformance, explore,
    # analysis...) count as harness if they ever show up.
    return _BY_PACKAGE.get(package, "workloads")


def _is_builtin(func):
    """cProfile keys C functions as ("~", 0, name)."""
    return func[0] == "~"


class Attribution:
    """Self time and cross-layer calls per layer from one profile."""

    def __init__(self, profiler, repro_dir):
        self.stats = pstats.Stats(profiler).stats
        # None for builtins; "unattributed" for stdlib frames.
        self._layer = {
            func: None if _is_builtin(func)
            else layer_of(func[0], repro_dir) or "unattributed"
            for func in self.stats}
        self._resolved = {}

    def resolve(self, func):
        """Distribution {layer: weight} of the layer that called ``func``
        (for a layer frame: its own layer)."""
        layer = self._layer.get(func)
        if layer not in (None, "unattributed"):
            return {layer: 1.0}
        if func in self._resolved:
            return self._resolved[func]
        entry = self.stats.get(func)
        callers = entry[4] if entry else {}
        if not callers:
            return {"workloads": 1.0}
        self._resolved[func] = {"workloads": 1.0}  # cycle guard
        total = sum(edge[3] for edge in callers.values())
        dist = {}
        for caller, edge in callers.items():
            weight = (edge[3] / total) if total > 0 else 1.0 / len(callers)
            for name, share in self.resolve(caller).items():
                dist[name] = dist.get(name, 0.0) + weight * share
        self._resolved[func] = dist
        return dist

    def layer_table(self):
        """{layer: {"self_s": s, "calls": n}} over every layer."""
        table = {name: {"self_s": 0.0, "calls": 0.0} for name in LAYERS}
        for func, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            layer = self._layer[func]
            if layer is not None:
                table[layer]["self_s"] += tt
            else:
                rest = tt
                for caller, edge in callers.items():
                    rest -= edge[2]
                    for name, share in self.resolve(caller).items():
                        table[name]["self_s"] += edge[2] * share
                table["workloads"]["self_s"] += max(0.0, rest)
            if layer is None:
                continue
            for caller, edge in callers.items():
                share = self.resolve(caller).get(layer, 0.0)
                table[layer]["calls"] += edge[1] * (1.0 - share)
        return table

    def top(self, layer, n=5):
        """The ``n`` functions with the most self time in ``layer``."""
        rows = []
        for func, (_cc, nc, tt, _ct, _callers) in self.stats.items():
            if self._layer[func] == layer:
                rows.append((tt, nc, "%s:%d(%s)" % (
                    os.path.basename(func[0]), func[1], func[2])))
        rows.sort(reverse=True)
        return [{"func": name, "self_s": tt, "calls": nc}
                for tt, nc, name in rows[:n]]
