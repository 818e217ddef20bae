"""Layer attribution for the traced run: module -> layer map, profile
split and in-memory spans.

The layers are the simulator's modules. Host time is attributed by the
module that defines each profiled function; stdlib and builtin callees
have no layer of their own and are charged to the layer that called
them (``enum.__hash__`` is called millions of times per kernel run
because ``machine.trace`` keys its ``Counter``s by enum tuples, and that
time belongs to ``machine.trace``, not to ``enum``).
"""

import time
from pathlib import Path

#: Module prefix -> layer; the longest matching prefix wins. Modules of
#: the repo that are not listed (observers, metrics, sweep, bench
#: program builders) and the benchmark's own code land in ``other``.
MODULE_LAYERS = {
    "repro.minic": "minic",
    "repro.asm": "toolchain",
    "repro.toolchain": "toolchain",
    "repro.core.transform": "toolchain",
    "repro.core.system": "toolchain",
    "repro.blockcache.transform": "toolchain",
    "repro.blockcache.system": "toolchain",
    "repro.datacache.system": "toolchain",
    "repro.isa": "isa",
    "repro.machine.cpu": "machine.cpu",
    "repro.machine.board": "machine.cpu",
    "repro.machine.bus": "machine.bus",
    "repro.machine.memory": "machine.bus",
    "repro.machine.trace": "machine.trace",
    "repro.machine.energy": "machine.trace",
    "repro.machine.tracelog": "machine.trace",
    "repro.machine.power": "machine.power",
    "repro.machine.fram_cache": "machine.fram_cache",
    "repro.core.policy": "core.policy",
    "repro.core": "core.runtime",
    "repro.blockcache": "blockcache.runtime",
    "repro.datacache": "datacache",
    "repro.replay": "replay",
    "repro.faults": "faults",
    "repro.difftest": "difftest",
}

OTHER = "other"

LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values())) + (OTHER,)

#: Layers that do set-up's work, reported as ``setup.<layer>.*``:
#: compile, instrument and link, assemble and encode, load, and the
#: replay engine's stream classification. The other layers only
#: construct objects in set-up and stay under a millisecond there.
SETUP_LAYERS = ("minic", "toolchain", "isa", "machine.bus", "replay")


def module_layer(module):
    """Layer of a dotted module name (``other`` when unmapped)."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return OTHER


class LayerMap:
    """Resolves profiled source files to layers.

    Files under the repo's ``src`` tree map by module name; everything
    else (stdlib, builtins, this benchmark) has no layer: ``None``, and is
    charged to its callers. Functions at the top of the profiled stack
    (the benchmark's operation closures) have no callers and land in
    ``other``.
    """

    def __init__(self, src_root):
        self.src_root = Path(src_root).resolve()
        self._cache = {}

    def file_layer(self, filename):
        layer = self._cache.get(filename, False)
        if layer is not False:
            return layer
        layer = None
        if filename and not filename.startswith(("~", "<")):
            path = Path(filename).resolve()
            if path.is_relative_to(self.src_root):
                module = ".".join(path.relative_to(self.src_root).with_suffix("").parts)
                layer = module_layer(module)
        self._cache[filename] = layer
        return layer


def split_profile(stats, layer_map):
    """Self seconds and call counts per layer from ``pstats`` data.

    *stats* is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``callers = {caller: (nc, cc, tt, ct)}`` (cProfile
    orders the two call counts differently in the two tuples). A function
    without a layer has each caller edge's time and calls charged to the
    caller's layer. A caller without a layer (``dict.get`` calling
    ``Enum.__hash__``) passes the charge on to its own callers in
    proportion to their call counts. The shares depend on call counts
    only, so the rounded per-layer call counts repeat exactly.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    shares = {}

    def layer_shares(func, visiting):
        """``{layer: share}`` of *func*'s charge, or None when every path
        from *func* back to a layer runs through *visiting* (a cycle)."""
        layer = layer_map.file_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        entry = stats.get(func)
        resolved = []
        for caller, edge in (entry[4] if entry else {}).items():
            # Recursive edges (deepcopy -> _deepcopy_dict -> deepcopy)
            # are skipped: the charge follows the calls that entered
            # the cycle.
            if caller in visiting or caller == func:
                continue
            caller_shares = layer_shares(caller, visiting | {func})
            if caller_shares is not None:
                resolved.append((edge[0], caller_shares))
        total = sum(count for count, _ in resolved)
        if not total:
            return None if entry and entry[4] else {OTHER: 1.0}
        result = {}
        for count, caller_shares in resolved:
            for layer, share in caller_shares.items():
                result[layer] = result.get(layer, 0.0) + share * count / total
        shares[func] = result
        return result

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_map.file_layer(func[0])
        if layer is not None or not callers:
            layer = layer or OTHER
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for caller, (edge_nc, _ecc, edge_tt, _ect) in callers.items():
            # An edge from inside a recursion charges like the calls
            # that entered it.
            caller_shares = (
                layer_shares(caller, frozenset({func}))
                or layer_shares(func, frozenset())
                or {OTHER: 1.0}
            )
            for layer, share in caller_shares.items():
                self_s[layer] += edge_tt * share
                calls[layer] += edge_nc * share
    return self_s, {layer: round(count) for layer, count in calls.items()}


def count_calls(stats, filename_suffix, funcname):
    """Total calls of one function, located by file suffix and name."""
    return sum(
        entry[1]
        for (filename, _line, name), entry in stats.items()
        if name == funcname and filename.replace("\\", "/").endswith(filename_suffix)
    )


class Spans:
    """In-memory span log: name, start, end, parent id, attributes.

    The caller writes ``records`` out when the run ends. A disabled log
    records nothing and costs one attribute test per span.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.records = []
        self._stack = []
        self._origin = time.perf_counter()

    def span(self, name, **attrs):
        return _Span(self, name, attrs)


class _Span:
    def __init__(self, log, name, attrs):
        self.log = log
        self.name = name
        self.attrs = attrs
        self.record = None

    def __enter__(self):
        log = self.log
        if not log.enabled:
            return self
        parent = log._stack[-1]["id"] if log._stack else None
        self.record = {
            "id": len(log.records) + 1,
            "parent": parent,
            "name": self.name,
            "start_s": time.perf_counter() - log._origin,
            "end_s": None,
            "attrs": self.attrs,
        }
        log.records.append(self.record)
        log._stack.append(self.record)
        return self

    def __exit__(self, *exc):
        if self.record is not None:
            self.record["end_s"] = time.perf_counter() - self.log._origin
            self.log._stack.pop()
        return False
