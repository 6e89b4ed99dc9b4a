"""The runtime uses only the standard library and numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hlstm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hlstm"}


def test_runtime_imports_only_stdlib_numpy_and_hlstm():
    seen, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue   # relative imports stay inside hlstm
            seen.update(tops)
            outside += [f"{path.name}:{node.lineno} {top}" for top in tops
                        if top not in ALLOWED]
    assert "numpy" in seen and "json" in seen   # the walk reached the imports
    assert not outside, outside


def test_benchmark_tracer_finds_every_function_it_wraps(monkeypatch):
    # perfbench's tracer looks each (owner, attr) up by name when a traced run
    # starts, so deleting or renaming one breaks every `run.py --trace 1`.
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    import tracing

    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.LAYER_FUNCTIONS
               if not callable(getattr(owner, attr, None))]
    assert len(tracing.LAYER_FUNCTIONS) > 20 and not missing, missing
