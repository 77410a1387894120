"""What the mesh-to-pencil path and a solve load.

Every command builds a mesh, its spaces and a pencil first.  That path
must not load ``scipy.sparse.csgraph`` (about 2.8 MB of peak memory) or
``scipy.sparse.linalg`` (about 2 MB and 10 ms; ``verify_all`` loads it
when it factors an operator bound).  A solve or a sweep, oracle included,
must not load ``scipy.optimize`` (about 200 modules, 18 MB and 0.16 s).
"""

import os
import subprocess
import sys
from pathlib import Path

import wavepencil as wp

FRONT_END = """
import math
import sys

import wavepencil as wp

mesh = wp.generate_rect_slab(math.pi, math.pi, math.pi / 2, 6, 6)
pencil = wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh), 1.0, 4.0))
assert pencil.nodal is not None and len(pencil.coefficient_norms) == 4
print(*sorted(name for name in sys.modules if name.startswith("scipy.sparse.")))
"""

SOLVE = """
import sys
import tempfile
from pathlib import Path

from wavepencil import cli
from wavepencil.config import SolverConfig

cfg = SolverConfig(nx=6, ny=6, eps2=4.0)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    cli.run(cfg, out / "solve")
    cli.sweep(cfg, out / "sweep", 1.0, 4.0, 2, workers=2)
    for step in ("solve", "sweep/step_000", "sweep/step_001"):
        assert (out / step / cfg.oracle_file).is_file()
print(*sorted(name for name in sys.modules if name.startswith("scipy.")))
"""


def _loaded(code):
    """Names printed by ``code`` run in a fresh interpreter on this package."""
    src = Path(wp.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return run.stdout.split()


def test_the_front_end_loads_no_sparse_graph_or_solver_module():
    loaded = _loaded(FRONT_END)
    assert "scipy.sparse._sparsetools" in loaded    # the probe sees scipy
    for name in ("scipy.sparse.csgraph", "scipy.sparse.linalg"):
        assert name not in loaded


def test_a_solve_and_a_sweep_load_no_optimize_module():
    loaded = _loaded(SOLVE)
    assert "scipy.linalg" in loaded     # the probe sees scipy
    assert not [name for name in loaded if name.startswith("scipy.optimize")]
