"""Per-layer tracing installed from outside the library.

`Tracer.install()` replaces genmi module attributes with timing wrappers:
every binding of a target function in every loaded genmi module (so calls
through `from .simplex import posterior` are seen too), plus
`__post_init__` of the two validated containers, which counts their
constructions.  A wrapped call records its self time: its duration minus
the time covered by wrapped calls nested inside it.

Spans (layer, operation id, depth, start, end) are kept in memory and
written out once, when the run ends.  The three hottest layers (`Pmf`,
`QFamily` and `variational._eval`, called thousands of times per
operation) are counted and timed but get no span each.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: (module, attribute, how it is wrapped).  "call" wraps a function,
#: "init" wraps a class's __post_init__, "gen" times each step of a
#: generator function.
TARGETS = [
    ("io", "random_channel_text", "call"),
    ("io", "parse_channel_text", "call"),
    ("simplex", "make_channel", "call"),
    ("simplex", "posterior", "call"),
    ("simplex", "Pmf", "init"),
    ("entropy", "mutual_information", "call"),
    ("entropy", "conditional_entropy", "call"),
    ("scoring", "optimal_response", "call"),
    ("scoring", "expected_score", "call"),
    ("leakage", "evsi", "call"),
    ("leakage", "evsi_scoring", "call"),
    ("leakage", "mevsi_scoring", "call"),
    ("leakage", "mevsi_matrix", "call"),
    ("variational", "q_step", "call"),
    ("variational", "p_step_closed", "call"),
    ("variational", "p_step_numeric", "call"),
    ("variational", "eval_functional", "call"),
    ("variational", "_eval", "call"),
    ("variational", "QFamily", "init"),
    ("capacity", "solve", "call"),
    ("capacity", "brute_force_search", "call"),
    ("capacity", "_grid_chunks", "gen"),
    ("capacity", "_batch_mi", "call"),
]

_UNSPANNED = {"simplex.Pmf", "variational.QFamily", "variational._eval"}

#: Layers whose work happens while inputs are built; their metrics are
#: totals over one set-up.  Every other metric is a mean per operation.
SETUP_LAYERS = {"io.random_channel_text", "io.parse_channel_text", "simplex.make_channel"}

#: Per-layer metrics whose name is not `<layer>.<field>`: name -> (layer, field).
#: Every other name in BENCHMARK.json's `per_layer` is read that way, with
#: `constructions` standing for the `calls` of a container's __post_init__.
NAMED = {
    "variational.functional_evals": ("variational._eval", "calls"),
    "capacity.grid_build_ms": ("capacity._grid_chunks", "self_ms"),
    "capacity.batch_mi_ms": ("capacity._batch_mi", "self_ms"),
    "capacity.grid_points": ("capacity._batch_mi", "rows"),
}

OVERHEAD_METRIC = "trace.overhead_ms"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def reported_metrics() -> dict[str, tuple[str, str, str]]:
    """The per-layer metrics of BENCHMARK.json: name -> (layer, field, unit)."""
    out = {}
    for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]:
        name = m["name"]
        if name == OVERHEAD_METRIC:
            continue
        layer, field = NAMED.get(name) or name.rsplit(".", 1)
        out[name] = (layer, "calls" if field == "constructions" else field, m["unit"])
    return out


class Tracer:
    """Installs and removes the wrappers, and aggregates what they record."""

    SETUP = -1  # operation id of work done while inputs are built

    def __init__(self):
        self.op = self.SETUP
        self.layers: list[str] = []
        self.missing: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        # (layer, op) -> {"calls", "self_s", extra counts...}
        self.totals: dict[tuple[str, int], dict[str, float]] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _build(self) -> None:
        loaded = _genmi_modules()
        for mod_name, attr, how in TARGETS:
            layer = f"{mod_name}.{attr}"
            try:
                target = getattr(importlib.import_module(f"genmi.{mod_name}"), attr, None)
            except ModuleNotFoundError:
                target = None
            if target is None:
                self.missing.append(layer)
            elif how == "init":
                init = target.__post_init__
                self._patches.append((target, "__post_init__", init, self._wrap(layer, init)))
            else:
                wrapper = (self._wrap_gen if how == "gen" else self._wrap)(layer, target)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._patches.append((mod, key, target, wrapper))

    # -- wrappers ------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        self.layers.append(layer)
        return len(self.layers) - 1

    def _record(self, layer, layer_id, t0, t1, extra=None) -> None:
        child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1] += dur
        tot = self.totals.get((layer, self.op))
        if tot is None:
            tot = self.totals[(layer, self.op)] = {"calls": 0, "self_s": 0.0}
        tot["calls"] += 1
        tot["self_s"] += dur - child
        if extra:
            for k, v in extra.items():
                tot[k] = tot.get(k, 0) + v
        if layer_id is not None:
            self.spans.append((layer_id, self.op, len(self._stack), t0, t1))

    def _wrap(self, layer, fn):
        layer_id = None if layer in _UNSPANNED else self._layer_id(layer)
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            extra = None
            try:
                out = fn(*args, **kwargs)
                extra = _extra_counts(layer, args, out)
                return out
            finally:
                record(layer, layer_id, t0, perf_counter(), extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, layer, fn):
        layer_id = self._layer_id(layer)
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    record(layer, layer_id, t0, perf_counter())
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, dict]:
        """Per-layer metrics: setup layers per set-up, the rest per operation."""
        sums: dict[str, dict[str, float]] = {}
        for (layer, op), tot in self.totals.items():
            if (op == self.SETUP) != (layer in SETUP_LAYERS):
                continue
            acc = sums.setdefault(layer, {})
            for k, v in tot.items():
                acc[k] = acc.get(k, 0) + v
        out = {}
        for name, (layer, field, unit) in reported_metrics().items():
            if layer in self.missing:
                out[name] = {"value": None, "unit": unit, "missing": True}
                continue
            acc = sums.get(layer, {})
            key = "self_s" if field == "self_ms" else field
            value = float(acc.get(key, 0))
            if field == "self_ms":
                value *= 1e3
            if layer not in SETUP_LAYERS:
                value /= max(n_ops, 1)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the span table and the per-operation totals as JSON."""
        doc = {
            "layers": self.layers,
            "missing": self.missing,
            "span_fields": ["layer", "op", "depth", "start_s", "end_s"],
            "spans": self.spans,
            "totals": [
                {"layer": layer, "op": op, **tot}
                for (layer, op), tot in sorted(self.totals.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _genmi_modules():
    return [m for n, m in list(sys.modules.items()) if n == "genmi" or n.startswith("genmi.")]


def _extra_counts(layer, args, out):
    if layer == "capacity.solve":
        return {"iterations": out.iterations, "budget_hits": 0 if out.converged else 1}
    if layer == "capacity._batch_mi":
        return {"rows": args[1].shape[0]}
    return None
