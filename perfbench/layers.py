"""Split a cProfile of the simulator by layer, from outside the program.

A layer is a package ``src/repro/<layer>/``.  The rules:

- a function's self time (cProfile's inline time) is charged to the layer
  whose file defines it;
- a function defined outside ``src/repro`` (C builtins, the standard
  library) is charged, call edge by call edge, to the layer of its caller.
  A caller that is itself outside ``src/repro`` stands for the layer of
  its own most frequent caller, resolved the same way;
- ``calls_in`` counts the calls into a layer whose caller resolves to
  another layer (or to nothing: the profiler's root call);
- what resolves to no layer at all is reported as unattributed.

Packages other than the seven the benchmark reports (``tcp``, ``faults``,
``apps``, ...) and modules directly under ``src/repro`` are pooled as
``other``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

LAYERS = ("sim", "core", "verbs", "hardware", "network", "sched", "obs")
OTHER = "other"
#: Constructors whose call counts are the kernel's spawn and timer counts.
SPAWN = "sim/process.py:Process.__init__"
TIMERS = ("sim/events.py:Timeout.__init__", "sim/events.py:TimeoutAt.__init__")


def _key(code: Any) -> Tuple[str, int, str]:
    """A process-independent sort key for a profiler code entry."""
    if isinstance(code, str):  # C builtin: cProfile labels it with a str
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_qualname)


class LayerMap:
    """Which layer a code object belongs to, by the file that defines it."""

    def __init__(self, repro_dir: str) -> None:
        self.prefix = os.path.join(os.path.abspath(repro_dir), "")

    def layer(self, code: Any) -> Optional[str]:
        if isinstance(code, str):
            return None
        filename = code.co_filename
        if not filename.startswith(self.prefix):
            return None
        parts = filename[len(self.prefix):].split(os.sep)
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0]
        return OTHER

    def relative(self, code: Any) -> str:
        if isinstance(code, str):
            return code
        filename = code.co_filename
        if filename.startswith(self.prefix):
            filename = filename[len(self.prefix):].replace(os.sep, "/")
        return f"{filename}:{code.co_qualname}"


def attribute(stats: List[Any], layers: LayerMap, top: int = 12) -> Dict[str, Any]:
    """Per-layer self seconds and ``calls_in`` from ``Profile.getstats()``.

    Returns ``{"self_s": {layer: s}, "calls_in": {layer: n},
    "unattributed_s": s, "total_s": s, "spawns": n, "timers": n,
    "top": [[function, layer, self_s, calls], ...]}``.
    """
    entries = sorted(stats, key=lambda e: _key(e.code))
    own = {e.code: layers.layer(e.code) for e in entries}
    callers: Dict[Any, List[Tuple[Any, int, float]]] = defaultdict(list)
    for e in entries:
        for sub in e.calls or ():
            callers[sub.code].append((e.code, sub.callcount, sub.inlinetime))
    for edges in callers.values():
        edges.sort(key=lambda edge: (-edge[1], _key(edge[0])))

    resolved: Dict[Any, Optional[str]] = {}

    def resolve(code: Any) -> Optional[str]:
        layer = own.get(code)
        if layer is not None:
            return layer
        if code in resolved:
            return resolved[code]
        resolved[code] = None  # breaks cycles among foreign callers
        for caller, _, _ in callers.get(code, ()):
            layer = resolve(caller)
            if layer is not None:
                break
        resolved[code] = layer
        return layer

    for e in entries:
        resolve(e.code)

    self_s = {name: 0.0 for name in LAYERS + (OTHER,)}
    calls_in = {name: 0 for name in LAYERS + (OTHER,)}
    unattributed = 0.0
    total = 0.0
    spawns = timers = 0
    for e in entries:
        total += e.inlinetime
        layer = own[e.code]
        edges = callers.get(e.code, ())
        if layer is None:
            charged = 0.0
            for caller, _, tt in edges:
                target = resolve(caller)
                if target is None:
                    unattributed += tt
                else:
                    self_s[target] += tt
                charged += tt
            unattributed += max(0.0, e.inlinetime - charged)
            continue
        self_s[layer] += e.inlinetime
        from_callers = 0
        for caller, n, _ in edges:
            from_callers += n
            if resolve(caller) != layer:
                calls_in[layer] += n
        calls_in[layer] += e.callcount - from_callers  # profiler roots
        where = layers.relative(e.code)
        if where == SPAWN:
            spawns += e.callcount
        elif where in TIMERS:
            timers += e.callcount

    hottest = sorted(entries, key=lambda e: (-e.inlinetime, _key(e.code)))[:top]
    return {
        "self_s": self_s,
        "calls_in": calls_in,
        "unattributed_s": unattributed,
        "total_s": total,
        "spawns": spawns,
        "timers": timers,
        "top": [
            [layers.relative(e.code), resolve(e.code), e.inlinetime, e.callcount]
            for e in hottest
        ],
    }
