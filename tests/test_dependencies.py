"""portcall needs nothing at run time beyond the standard library and numpy."""

import os
import subprocess
import sys
from pathlib import Path

import portcall

SRC = str(Path(portcall.__file__).parents[1])

WORKFLOW = """
import portcall as pc
text = pc.gen_synthetic(pc.SyntheticConfig(n_ports=3, routes_per_port=3, points_min=5,
                                           points_max=8))
records, errors = pc.parse_ais_csv(text, labeled=True)
assert records and not errors
routes = pc.partition_routes(records, labeled=True)
for route in routes:
    pc.enrich_route(route)
pc.replay_route(pc.train(routes, pc.ModelParams()), routes[0])
pc.evolve(routes, pc.GaConfig(population=3, generations=1), workers=2)
import portcall.cli
"""


def loaded_outside_stdlib(code):
    """The top-level modules outside the standard library that a fresh
    interpreter holds after running code."""
    report = ("\nimport sys\n"
              "print(*{m.split('.')[0] for m in sys.modules} - set(sys.stdlib_module_names))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True,
                         text=True, check=True)
    return set(run.stdout.split())


def test_no_runtime_dependency_beyond_numpy():
    """The whole workflow loads portcall and what importing numpy, its random
    and its linalg load anyway (such as a Cython runtime or site hooks),
    nothing more: no scipy, however much it is installed."""
    baseline = loaded_outside_stdlib("import numpy, numpy.random, numpy.linalg")
    loaded = loaded_outside_stdlib(WORKFLOW)
    assert loaded - baseline == {"portcall"}
