"""The package exports and defines what the program runs.

Every name in ``wavepencil.__all__`` must be referenced by the modules
under ``src/wavepencil`` other than ``__init__.py``, so that an export
is something ``solve``, ``verify``, ``sweep`` or ``oracle`` runs.  Every
function and method defined there must be referenced by those modules
or by ``perfbench``.  A definition or an import is not a reference; a
use by name or as an attribute is.
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


#: Functions and methods that neither the program nor the benchmark
#: calls, each with the reader that keeps it.
UNREFERENCED_DEFINITIONS = {
    "cleared_determinant": "the oracle tests check the tangent form "
                           "against it",
    "degeneration_count": "the analysis tests check the nullity scan "
                          "against it",
    "count_in_disk": "acceptance criterion 9 reads it",
    "count_real_outside_exclusion": "acceptance criterion 9 reads it",
    "PairingReport.max_normalized": "acceptance criterion 4 reads it",
    "PairingReport.violations": "acceptance criterion 4 reads it",
    "FieldSpaces.nodal_fields": "the oracle's field-signature check "
                                "(ROADMAP item 5) will read it",
    "generate_homogeneous_rect": "the benchmark's tracer names it by "
                                 "string (perfbench/tracing.py TARGETS)",
    "PencilMatrices.gram": "the assembly, spaces and analysis tests read "
                           "the kept Gram blocks from it; the program "
                           "writes them afresh (gram_blocks)",
}

PACKAGE_DIR = Path(wavepencil.__file__).parent


def _modules(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            if path.name != "__init__.py" and "tests" not in path.parts:
                yield ast.parse(path.read_text(encoding="utf-8"),
                                filename=str(path))


def _referenced_names(*dirs):
    names = set()
    for tree in _modules(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _definitions(package_dir):
    """Module-level functions, and methods as Class.name; no dunders."""
    defs = {}
    for tree in _modules(package_dir):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__"))
    return defs


def test_every_export_is_referenced_by_the_program():
    referenced = _referenced_names(PACKAGE_DIR)
    unreferenced = set(wavepencil.__all__) - referenced
    assert unreferenced == set(UNREFERENCED_EXPORTS)


def test_every_definition_is_referenced_by_the_program_or_benchmark():
    perfbench = PACKAGE_DIR.parents[1] / "perfbench"
    assert (perfbench / "tracing.py").exists()
    referenced = _referenced_names(PACKAGE_DIR, perfbench)
    unreferenced = {qualified for qualified, name in
                    _definitions(PACKAGE_DIR).items()
                    if name not in referenced}
    assert unreferenced == set(UNREFERENCED_DEFINITIONS)
