"""Span tracing of latbabai calls, applied from outside the package.

Each traced function is replaced by a wrapper in every latbabai module
namespace that holds it, so calls made through `from .x import f` bindings
and through the package root are seen as well as calls inside the defining
module. Spans (name, start, end, parent) stay in memory until the run ends.
"""

import functools
import json
import sys
import time
from math import comb


def _polytope_counts(counts, args, kwargs, result):
    planes = len(args[0] if args else kwargs["normals"])
    counts["planes_in"] += planes
    counts["triples"] += comb(planes, 3)
    counts["vertices_out"] += result.n_vertices
    counts["facets_out"] += result.n_facets


def _sampler_counts(counts, args, kwargs, result):
    counts["draws"] += result[1]


def _scan_counts(counts, args, kwargs, result):
    counts["trials"] += args[0] if args else kwargs["trials"]
    counts["records"] += len(result)


# (defining module, function, optional hook reading counts off the result)
TRACED = (
    ("polytope", "polytope_from_halfspaces", _polytope_counts),
    ("polytope", "intersect_polytopes", None),
    ("error3d", "pe_3d", None),
    ("error3d", "voronoi_halfspaces", None),
    ("error3d", "random_reduced_superbase", _sampler_counts),
    ("error3d", "scan_random", _scan_counts),
    ("error3d", "summarize_scan", None),
    ("error3d", "classify_cell", None),
    ("error3d", "mc_pe_oracle", None),
    ("core", "qr_upper", None),
    ("core", "packing_density", None),
    ("core", "shortest_vector", None),
    ("core", "cvp_bruteforce", None),
    ("core", "as_basis", None),
    ("reduction", "to_obtuse_superbase", None),
    ("reduction", "is_minkowski_reduced", None),
    ("reduction", "conorms", None),
    ("cli", "main", None),
    ("babai", "babai_point", None),
    ("babai", "nearest_plane_general", None),
    ("babai", "nearest_plane", None),
    ("protocol", "node_encode", None),
    ("protocol", "fusion_decode", None),
    ("protocol", "rationalize", None),
    ("protocol", "interactive_simulate", None),
    ("protocol", "centralized_total_rate", None),
)

COUNTERS = ("planes_in", "triples", "vertices_out", "facets_out", "draws", "trials", "records")


class Tracer:
    """Records one span per wrapped call; `install` patches, `remove` restores."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "latbabai" or k.startswith("latbabai.")]
        for mod_name, fn_name, hook in TRACED:
            orig = getattr(sys.modules[f"latbabai.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def remove(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def layer_table(self):
        """Per span name: call count and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {f"{m}.{f}": {"calls": 0, "self_s": 0.0} for m, f, _ in TRACED}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += end - start - inner
        return table

    def root_time(self):
        """Wall time covered by spans without a parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
