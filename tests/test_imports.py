"""What the mesh-to-pencil path loads.

Every command builds a mesh, its spaces and a pencil first.  That path
must not load ``scipy.sparse.csgraph`` (about 2.8 MB of peak memory) or
``scipy.sparse.linalg`` (about 2 MB and 10 ms; ``verify_all`` loads it
when it factors an operator bound).
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


def test_the_front_end_loads_no_sparse_graph_or_solver_module():
    src = Path(wp.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", FRONT_END], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    loaded = run.stdout.split()
    assert "scipy.sparse._sparsetools" in loaded    # the probe sees scipy
    for name in ("scipy.sparse.csgraph", "scipy.sparse.linalg"):
        assert name not in loaded
