"""latbabai benchmark.

    python3 bench/run.py --workload {scan,scan_dense,decode} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout and imports the package from ./src.
With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs one
pass of every block untraced and one traced, and reports per-layer call
counts and self times. `--workload all` runs the three workloads one after
another, each in a fresh process, untraced then traced. The last line of
standard output is one JSON object; details go to .bench_out/.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
WARMUP_S = 0.5
ROUND_S = 1.0

# The default single-worker scan path is the one measured.
os.environ.pop("LATBABAI_THREADS", None)


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import latbabai
    except ImportError as exc:
        sys.exit(f"bench: cannot import latbabai from {src}: {exc}")
    if not Path(latbabai.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: latbabai imported from {latbabai.__file__}, not from {src}")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_files():
    return sorted((ROOT / "src").rglob("*.py"))


def metadata():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
    }


def _code_digest():
    """Digest of the package and benchmark sources; keys the exact-count record."""
    h = hashlib.sha256()
    for p in _src_files() + sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# --- measuring --------------------------------------------------------------


class Tally:
    """Attempted and failed operations, first-pass counts, failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.first = {}

    def fail(self, msg):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)

    def add_counts(self, block, counts):
        acc = self.first.setdefault(block, {})
        for k, v in counts.items():
            acc[k] = acc.get(k, []) + v if isinstance(v, list) else acc.get(k, 0) + v


def _run_item(block, item, tally, first_pass, check=True):
    """Time one call, then check its output. Returns the call time or None on failure.

    Any exception from the call or from its check counts the operation as
    failed; the run carries on with the next input.
    """
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        out = block.call(item)
        dt = time.perf_counter() - t0
        if check:
            counts = block.check(item, out)
            if first_pass:
                tally.add_counts(block.name, counts)
    except Exception as exc:
        tally.fail(f"{block.name}: {type(exc).__name__}: {exc}")
        return None
    return dt


def warm_up(block, tally):
    """Discarded calls from the start of the block, for at least WARMUP_S."""
    end = time.perf_counter() + WARMUP_S
    for k, item in enumerate(block.items * 2):
        _run_item(block, item, tally, first_pass=False)
        if k and time.perf_counter() >= end:
            break


def measure(blocks, seconds, tally):
    """Cycle every block's inputs for `seconds`, at least one full pass each.

    Blocks take turns in slices of ROUND_S * share, so each block samples the
    whole window: machine speed here drifts over seconds, and a block timed in
    one contiguous stretch would see only part of that drift. Returns, per
    block, each input's list of call times; counts come from the first pass.
    """
    times = {b.name: [[] for _ in b.items] for b in blocks}
    done = dict.fromkeys(times, 0)
    end = time.perf_counter() + seconds
    while True:
        over = time.perf_counter() >= end
        todo = [b for b in blocks if not over or done[b.name] < len(b.items)]
        if not todo:
            return times
        for b in todo:
            n = len(b.items)
            slice_end = time.perf_counter() + ROUND_S * b.share
            while True:
                k = done[b.name]
                dt = _run_item(b, b.items[k % n], tally, first_pass=k < n)
                if dt is not None:
                    times[b.name][k % n].append(dt)
                done[b.name] = k + 1
                if time.perf_counter() >= slice_end or (over and k + 1 >= n):
                    break


def _unchecked_pass(wl, tally):
    """Wall time of one pass over every block's inputs, outputs not checked."""
    t0 = time.perf_counter()
    for blk in wl.blocks:
        for item in blk.items:
            _run_item(blk, item, tally, first_pass=False, check=False)
    return time.perf_counter() - t0


def block_stats(block, times):
    """Summarize a block's call times (a list per input).

    Latency: p50 is the median over inputs of each input's mean call time,
    p90 and p99 are taken over all calls. Rate: units of one pass divided by
    the sum over inputs of each input's mean call time. See README.md for why.
    """
    done = [np.asarray(t) for t in times if t]
    pooled = np.concatenate(done)
    stats = {"calls": len(pooled), "inputs": len(done)}
    if block.kind == "latency":
        stats["p50_s"] = float(np.median([t.mean() for t in done]))
        stats["p90_s"], stats["p99_s"] = (float(x) for x in np.percentile(pooled, [90, 99]))
    else:
        stats["units"] = sum(block.units(item) for item, t in zip(block.items, times) if t)
        stats["pass_s"] = float(sum(t.mean() for t in done))
        stats["units_per_s"] = stats["units"] / stats["pass_s"]
    return stats


def end_to_end(wl, stats):
    """The benchmark's metrics and the figures named by operation."""
    lat = stats[wl.latency_block]
    metrics = {
        "rate_per_s": (sum(stats[b]["units"] for b in wl.rate_blocks)
                       / sum(stats[b]["pass_s"] for b in wl.rate_blocks), "1/s"),
        "call_p50_ms": (lat["p50_s"] * 1e3, "ms"),
        "call_p90_ms": (lat["p90_s"] * 1e3, "ms"),
    }
    named = {k: (stats[b][stat] * scale, unit) for k, (b, stat, scale, unit) in wl.named.items()}
    return metrics, named


def setup_time(workload, seed):
    """Median over fresh interpreters of: start -> import -> inputs -> first calls."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t0)
    return statistics.median(samples), samples


def exact_counts(first, tracer=None):
    """Counts that must repeat exactly for a fixed seed and fixed code."""
    out = {}
    for block, acc in first.items():
        for k, v in acc.items():
            if not isinstance(v, list):
                out[f"{block}.{k}"] = v
    if tracer is not None:
        out.update({f"trace.{k}": v for k, v in tracer.counts.items()})
    return out


def check_counts(key, counts):
    """Compare with the counts an earlier run of the same code and seed recorded."""
    path = OUT / "counts" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            diff = {k: (before.get(k), counts.get(k)) for k in set(before) | set(counts)
                    if before.get(k) != counts.get(k)}
            return [f"exact counts differ from an earlier run: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def per_layer(tracer, first, traced_s, untraced_s):
    metrics = {}
    for name, row in tracer.layer_table().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_s"] * 1e3, "ms")
    c = tracer.counts
    for k in ("planes_in", "triples", "vertices_out", "facets_out"):
        metrics[f"polytope.polytope_from_halfspaces.{k}"] = (c[k], "count")
    sampler_calls = metrics["error3d.random_reduced_superbase.calls"][0]
    metrics["error3d.random_reduced_superbase.draws_per_basis"] = (
        c["draws"] / sampler_calls if sampler_calls else 0.0, "1")
    metrics["error3d.scan_random.pass_rate"] = (
        c["records"] / c["trials"] if c["trials"] else 0.0, "1")
    q = first.get("babai_query", {})
    metrics["babai.babai_point.miss_ratio"] = (
        q["misses"] / q["queries"] if q else 0.0, "1")
    metrics["trace.traced_ms"] = (traced_s * 1e3, "ms")
    metrics["trace.untraced_ms"] = (untraced_s * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
    metrics["trace.bench_ms"] = ((traced_s - tracer.root_time()) * 1e3, "ms")
    return metrics


def _fmt(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name, seed, seconds, trace):
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    meta = metadata()
    setup = setup_time(name, seed) if not trace else None
    wl = workloads.build(name, seed, str(OUT / f"{name}-{os.getpid()}.csv"))
    tally = Tally()
    for blk in wl.blocks:
        _run_item(blk, blk.items[0], tally, first_pass=False)  # cold call
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "meta": meta,
              "params": workloads.PARAMS[name]}
    tracer = None
    if not trace:
        for blk in wl.blocks:
            warm_up(blk, tally)
        times = measure(wl.blocks, seconds, tally)
        stats = {blk.name: block_stats(blk, times[blk.name]) for blk in wl.blocks}
        metrics, named = end_to_end(wl, stats)
        metrics = {"setup_s": (setup[0], "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                   **metrics}
        report.update({"blocks": stats, "setup_samples_s": setup[1]})
    else:
        # a checked warm-up pass gives the counts; the timed passes run unchecked
        measure(wl.blocks, 0.0, tally)
        untraced = _unchecked_pass(wl, tally)
        tracer = Tracer(run_id=f"{name}-{seed}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
        try:
            traced = _unchecked_pass(wl, tally)
        finally:
            tracer.remove()
        metrics = per_layer(tracer, tally.first, traced, untraced)
        named = {}
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    for msg in wl.final_checks(tally.first):
        tally.fail(msg)
    counts = exact_counts(tally.first, tracer)
    for msg in check_counts(f"{name}-seed{seed}-trace{trace}-{_code_digest()}", counts):
        tally.fail(msg)
    try:
        os.remove(OUT / f"{name}-{os.getpid()}.csv")
    except FileNotFoundError:
        pass
    attempted = tally.attempted
    named["failed_ratio"] = (tally.failed / attempted, "1")
    report.update({"metrics": _fmt(metrics), "named": _fmt(named), "exact_counts": counts,
                   "attempted": attempted, "failed": tally.failed, "failures": tally.messages})
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# {name} seed={seed} seconds={seconds} trace={trace} {json.dumps(meta)}")
    for k, (v, u) in {**named, **(metrics if trace else {})}.items():
        print(f"# {k} = {v:.6g} {u}")
    for k, v in counts.items():
        print(f"# count {k} = {v}")
    for msg in tally.messages:
        print(f"# FAILED {msg}")
    result = {"correct": tally.failed == 0, "attempted": attempted, "failed": tally.failed,
              "metrics": _fmt(metrics)}
    print(json.dumps(result))


def setup_probe(name, seed):
    import workloads

    wl = workloads.build(name, seed, str(OUT / f"{name}-probe-{os.getpid()}.csv"))
    for blk in wl.blocks:
        blk.call(blk.items[0])
    ready = time.monotonic()
    try:
        os.remove(OUT / f"{name}-probe-{os.getpid()}.csv")
    except FileNotFoundError:
        pass
    print(json.dumps({"ready": ready}))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each run in a fresh process."""
    import workloads

    summary = {"seed": seed, "seconds": seconds, "meta": metadata(), "workloads": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(f"bench: {name} trace={trace} failed: {proc.stderr.strip()[-500:]}")
            summary["workloads"].setdefault(name, {})[f"trace{trace}"] = json.loads(
                (OUT / f"result-{name}-seed{seed}-trace{trace}.json").read_text())
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    ok = all(r[f"trace{t}"]["failed"] == 0 for r in summary["workloads"].values() for t in (0, 1))
    print(json.dumps({"correct": ok, "summary": str((OUT / f"summary-seed{seed}.json").relative_to(ROOT))}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "scan_dense", "decode", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_package()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
