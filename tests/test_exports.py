"""The package exports what the program runs.

Every name in ``wavepencil.__all__`` must be referenced by the modules
under ``src/wavepencil`` other than ``__init__.py``, so that an export
is something ``solve``, ``verify``, ``sweep`` or ``oracle`` runs.  A
definition is not a reference; a use by name or as an attribute is.
"""

import ast
from pathlib import Path

import wavepencil

#: Exports that no command runs, each with the caller that keeps it.
UNREFERENCED_EXPORTS = {
    "generate_homogeneous_rect":
        "the tests build the homogeneous square with it, and the "
        "benchmark's tracer wraps it (perfbench/tracing.py TARGETS)",
    "degeneration_scan":
        "the benchmark's verify-ladder workload runs it, and the analysis "
        "tests check its table",
}


def _referenced_names(package_dir):
    names = set()
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_referenced_by_the_program():
    referenced = _referenced_names(Path(wavepencil.__file__).parent)
    unreferenced = set(wavepencil.__all__) - referenced
    assert unreferenced == set(UNREFERENCED_EXPORTS)
