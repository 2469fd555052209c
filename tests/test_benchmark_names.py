"""The benchmark under perfbench/ reaches the library by name: every name it uses must exist.

``perfbench/api.py`` builds its traced toric namespace with ``getattr`` over
``holoqec.toric.__all__`` and swaps names inside ``holoqec.cli``, so a stale
export or a deleted name breaks ``perfbench/run.py --trace 1``.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

from holoqec import toric as tt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_toric_all_resolves():
    assert [name for name in tt.__all__ if not hasattr(tt, name)] == []


def _dotted(node) -> list[str] | None:
    """['a', 'b', 'c'] for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute) and (head := _dotted(node.value)):
        return head + [node.attr]
    return None


def test_every_library_name_perfbench_uses_exists():
    missing, used = [], 0
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> the holoqec module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "holoqec":
                        bound = a.name if a.asname else "holoqec"
                        aliases[a.asname or "holoqec"] = importlib.import_module(bound)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("holoqec"):
                module = importlib.import_module(node.module)
                for a in node.names:
                    used += 1
                    if not hasattr(module, a.name):
                        missing.append(f"{path.name}: from {node.module} import {a.name}")
                    elif isinstance(getattr(module, a.name), types.ModuleType):
                        aliases[a.asname or a.name] = getattr(module, a.name)
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in aliases:
                continue
            obj = aliases[chain[0]]
            for i, name in enumerate(chain[1:], 1):
                used += 1
                if not hasattr(obj, name):
                    missing.append(f"{path.name}: {'.'.join(chain[: i + 1])}")
                    break
                obj = getattr(obj, name)
    assert used > 50 and missing == []


def test_traced_cli_swaps_resolve():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from api import Api
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    with Api(Tracer()).traced_cli():
        pass
