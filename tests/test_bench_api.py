"""The benchmark's view of the library: every name it calls or traces exists.

The benchmark under `bench/` runs outside this suite.  A deleted public
name would break it only there, and a renamed traced layer would only
blank that layer's metrics, so both are checked here from the source of
the benchmark files, which this test reads and never imports.
"""

import ast
import importlib
import re
from pathlib import Path

import genmi
import genmi.io  # noqa: F401  (the package does not load it; the benchmark worker does)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_workload_calls_exist_on_genmi():
    # the workloads take the package as a parameter named g
    chains = {
        text for node in ast.walk(_tree("workloads.py")) if isinstance(node, ast.Attribute)
        for text in [ast.unparse(node)] if re.fullmatch(r"g(\.\w+)+", text)
    }
    assert chains
    missing = []
    for chain in sorted(chains):
        obj = genmi
        for attr in chain.split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(chain)
    assert not missing, missing


def test_traced_targets_resolve():
    targets = next(
        ast.literal_eval(node.value) for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = []
    for module, attr, how in targets:
        target = getattr(importlib.import_module(f"genmi.{module}"), attr, None)
        if target is None or (how == "init" and not hasattr(target, "__post_init__")):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
