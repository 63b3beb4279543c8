"""What the frozen benchmark under bench/ reads from the package.

bench/spans.py wraps functions by module and name, and bench/workloads.py
reads their return shapes and imports a warning class. A change that renames
or reshapes one of them breaks the benchmark, so these tests fail first.
bench/spans.py imports only the standard library and is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from latbabai.error3d import random_reduced_superbase
from latbabai.polytope import polytope_from_halfspaces

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module():
    traced = _load_spans().TRACED
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, name, _ in traced
        if not callable(getattr(importlib.import_module(f"latbabai.{mod}"), name, None))
    ]
    assert not missing, f"bench/spans.py traces functions that are gone: {missing}"


def test_sampler_returns_a_basis_and_its_draw_count():
    V, attempts = random_reduced_superbase(0)
    assert np.asarray(V).shape == (3, 3)
    assert isinstance(attempts, int) and attempts >= 1


def test_polytope_counts_vertices_and_facets():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    cube = polytope_from_halfspaces(normals, np.ones(6))
    assert (cube.n_vertices, cube.n_facets) == (8, 6)


def test_enumeration_window_warning_imports_from_core():
    from latbabai.core import EnumerationWindowWarning

    assert issubclass(EnumerationWindowWarning, Warning)
