"""facetor benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload ma-tor --seed 20260819 --seconds 45 --trace 0
    python3 bench/run.py --workload all

--trace 0 times the workload untraced: it repeats the workload's fixed
batch of operations while another pass fits into --seconds (at least
once) and reports the end-to-end metrics.
--trace 1 runs set-up and one pass untraced, then again with spans around
the entry points of every facetor module, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Every workload runs alone
in one single-threaded process; `--workload all` starts one process per
workload, one after another.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
NAMES = ("ma-tor", "algebra", "quotient-cli")
SETUP_REPEATS = 3

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, source): source is ("calls" | "incl" | "self", span),
# ("layer", module) for the self time of every span of a module,
# ("count", key) for a structural count, or ("trace", key).
PER_LAYER = (
    ("torcohomology.blocks", "count", ("count", "blocks")),
    ("torcohomology.blocks_useful", "count", ("count", "blocks_useful")),
    ("torcohomology.blocks_useful_ratio", "1", ("count", "useful_ratio")),
    ("torcohomology.basis_keys", "count", ("count", "basis_keys")),
    ("torcohomology.generators", "count", ("count", "generators")),
    ("torcohomology.compute_tor.calls", "count",
     ("calls", "torcohomology.compute_tor")),
    ("torcohomology.compute_tor.self_s", "s",
     ("self", "torcohomology.compute_tor")),
    ("torcohomology.reduce.calls", "count", ("calls", "torcohomology.reduce")),
    ("torcohomology.reduce.self_s", "s", ("self", "torcohomology.reduce")),
    ("torcohomology.product_table.self_s", "s",
     ("self", "torcohomology.product_table")),
    ("exactalg.smith.calls", "count", ("count", "exactalg.smith.calls")),
    ("exactalg.smith.entries_in", "count",
     ("count", "exactalg.smith.entries_in")),
    ("exactalg.smith_qq.entries_in", "count",
     ("count", "exactalg.smith_qq.entries_in")),
    ("exactalg.smith_zz.entries_in", "count",
     ("count", "exactalg.smith_zz.entries_in")),
    ("exactalg.smith_zmod.entries_in", "count",
     ("count", "exactalg.smith_zmod.entries_in")),
    ("exactalg.smith_qq_s", "s", ("incl", "exactalg.smith_qq")),
    ("exactalg.smith_zz_s", "s", ("incl", "exactalg.smith_zz")),
    ("exactalg.smith_zmod_s", "s", ("incl", "exactalg.smith_zmod")),
    ("exactalg.project.calls", "count", ("calls", "exactalg.project")),
    ("exactalg.project.s", "s", ("incl", "exactalg.project")),
    ("exactalg.prepared_solver.calls", "count",
     ("calls", "exactalg.prepared_solver")),
    ("exactalg.prepared_solver.s", "s", ("incl", "exactalg.prepared_solver")),
    ("koszul.differential.calls", "count", ("calls", "koszul.differential")),
    ("koszul.differential.s", "s", ("incl", "koszul.differential")),
    ("koszul.star_product.s", "s", ("incl", "koszul.star_product")),
    ("koszul.wedge_product.s", "s", ("incl", "koszul.wedge_product")),
    ("facering.multiply.calls", "count", ("calls", "facering.multiply")),
    ("facering.multiply.s", "s", ("incl", "facering.multiply")),
    ("facering.multiply_limit.s", "s", ("incl", "facering.multiply_limit")),
    ("facering.pullback.s", "s", ("incl", "facering.pullback")),
    ("toricmorphism.hat_tor_phi.self_s", "s",
     ("self", "toricmorphism.hat_tor_phi")),
    ("toricmorphism.tor_phi.self_s", "s", ("self", "toricmorphism.tor_phi")),
    ("toricmorphism.omega.self_s", "s", ("self", "toricmorphism.omega")),
    ("toricmorphism.ideal.self_s", "s", ("self", "toricmorphism.ideal")),
    ("simplicial.validate.s", "s", ("incl", "simplicial.validate")),
    ("simplicial.poset.s", "s", ("incl", "simplicial.poset")),
    ("documents.parse.s", "s", ("incl", "documents.parse")),
    ("documents.dump.s", "s", ("incl", "documents.dump")),
    ("cli.self_s", "s", ("layer", "cli")),
    ("documents.self_s", "s", ("layer", "documents")),
    ("simplicial.self_s", "s", ("layer", "simplicial")),
    ("facering.self_s", "s", ("layer", "facering")),
    ("koszul.self_s", "s", ("layer", "koszul")),
    ("exactalg.self_s", "s", ("layer", "exactalg")),
    ("torcohomology.self_s", "s", ("layer", "torcohomology")),
    ("toricmorphism.self_s", "s", ("layer", "toricmorphism")),
    ("trace.wall_s", "s", ("trace", "wall_s")),
    ("trace.overhead_s", "s", ("trace", "overhead_s")),
    ("trace.unattributed_s", "s", ("trace", "unattributed_s")),
    ("trace.spans", "count", ("trace", "spans")),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default 20260819, the seed of the "
                        "acceptance sample)")
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store the output hashes of the default seed as "
                        "the expected ones")
    return p.parse_args(argv)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, threads):
    return {"python": platform.python_version(), "cpu": _cpu_model(),
            "nproc": os.cpu_count(), "commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "FACETOR_THREADS": threads if threads is not None else "unset",
            "processes": 1, "workloads_in_process": 1}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[k]


def _tail_percentile(n):
    """Highest whole percentile with at least ten of the n operations of
    one pass above it."""
    p = 100 * (n - 10) // n
    if p < 50:
        raise ValueError("a pass needs at least 20 operations")
    return p


def _run_ops(workload, state, ops, keep):
    """One pass: latencies, output hashes, kept results and errors, all
    by op index.  With keep="raw" the results themselves are kept and not
    hashed; otherwise they are summarized outside the timed calls.

    Operations run in a fixed shuffled order: the workloads list them by
    size, and a slow spell of the machine would otherwise fall on every
    operation of one size and move the median."""
    n = len(ops)
    order = list(range(n))
    random.Random(n).shuffle(order)
    latencies, digests, kept, errors = [0.0] * n, [None] * n, [None] * n, {}
    clock = time.perf_counter
    for i in order:
        name, fn = ops[i]
        start = clock()
        try:
            result = fn()
        except Exception:
            latencies[i] = clock() - start
            errors[i] = traceback.format_exc(limit=3)
            continue
        latencies[i] = clock() - start
        if keep == "raw":
            kept[i] = (name, result)
            continue
        text, summary = workload.summarize(name, result, state)
        del result
        digests[i] = _digest(text)
        if keep:
            kept[i] = summary
    return latencies, digests, kept, errors


def _import_seconds():
    """Time to import facetor in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); "
            "start = time.perf_counter(); import facetor.cli; "
            "print(time.perf_counter() - start)" % os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def _timed_setup(workload, seed, workdir):
    start = time.perf_counter()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - start


def _expected(name, seed, default_seed):
    if seed != default_seed or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED) as fh:
        return json.load(fh).get(name)


def _gate(workload, state, ops, kept, digests_by_pass, expected):
    """Failed op indexes per pass, with reasons, from the correctness
    checks (run once, on the first pass) and the output hashes."""
    reasons = {}
    try:
        reasons.update(workload.check(state, kept))
    except Exception:
        reasons[-1] = "correctness gate raised:\n" + traceback.format_exc()
    first = digests_by_pass[0]
    if expected is not None:
        for i, (name, _) in enumerate(ops):
            if first[i] is not None and expected.get(name) != first[i]:
                reasons.setdefault(i, "output hash %s, expected %s" % (
                    first[i], expected.get(name)))
    failed = []
    for p, digests in enumerate(digests_by_pass):
        bad = set(reasons)
        bad.update(i for i, d in enumerate(digests) if d is None)
        bad.update(i for i, d in enumerate(digests) if d != first[i])
        failed.append(bad)
    return failed, reasons


def _report_failures(ops, reasons, errors):
    for i, text in sorted(errors.items()):
        print("FAILED %s:\n%s" % (ops[i][0], text), file=sys.stderr)
    for i, text in sorted(reasons.items()):
        label = ops[i][0] if i >= 0 else "gate"
        print("FAILED %s: %s" % (label, text), file=sys.stderr)


def _untraced(args, workload, workdir):
    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, dt = _timed_setup(workload, args.seed, workdir)
        setups.append(dt)
    ops = workload.ops(state)
    n = len(ops)
    tail = _tail_percentile(n)
    walls, latencies, digests_by_pass, errors = [], [], [], {}
    kept = None
    start = time.perf_counter()
    while True:
        lat, digests, k, errs = _run_ops(workload, state, ops,
                                         keep=kept is None)
        if kept is None:
            kept = k
        errors.update(errs)
        walls.append(sum(lat))
        latencies.extend(lat)
        digests_by_pass.append(digests)
        elapsed = time.perf_counter() - start
        if elapsed + walls[-1] > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = _gate(workload, state, ops, kept, digests_by_pass,
                            _expected(workload.name, args.seed,
                                      args.default_seed))
    _report_failures(ops, reasons, errors)
    attempted = n * len(walls)
    nfailed = sum(len(bad) for bad in failed)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * _percentile(latencies, tail),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    print("workload %s, seed %d: %d operations per pass; passes %s s; "
          "imports %s s; set-ups %s s" % (
              workload.name, args.seed, n,
              ", ".join("%.3f" % w for w in walls),
              ", ".join("%.3f" % s for s in imports),
              ", ".join("%.3f" % s for s in setups)))
    for name, unit in END_TO_END:
        extra = " (p%d)" % tail if name == "op_tail_ms" else ""
        print("  %-12s %12.4f %s%s" % (name, metrics[name], unit, extra))
    print("  %-12s %12.4f 1 (%d of %d operations)" % (
        "fail_ratio", nfailed / attempted, nfailed, attempted))
    if args.record and args.seed == args.default_seed:
        _record(workload.name, ops, digests_by_pass[0])
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in END_TO_END}
    return attempted, nfailed, result


def _record(name, ops, digests):
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            data = json.load(fh)
    data[name] = {op: d for (op, _), d in zip(ops, digests)}
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _traced(args, workload, workdir, env):
    from tracing import LAYERS, Tracer

    state, setup_u = _timed_setup(workload, args.seed, workdir)
    ops = workload.ops(state)
    lat_u, _, _, _ = _run_ops(workload, state, ops, keep=False)
    wall_u = setup_u + sum(lat_u)
    state = ops = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        state, setup_t = _timed_setup(workload, args.seed, workdir)
        ops = workload.ops(state)
        lat_t, _, raw, errors = _run_ops(workload, state, ops, keep="raw")
    finally:
        tracer.uninstall()
    wall_t = setup_t + sum(lat_t)

    digests, kept = [], []
    for item in raw:
        if item is None:
            digests.append(None)
            kept.append(None)
            continue
        text, summary = workload.summarize(item[0], item[1], state)
        digests.append(_digest(text))
        kept.append(summary)
    raw = None
    failed, reasons = _gate(workload, state, ops, kept, [digests],
                            _expected(workload.name, args.seed,
                                      args.default_seed))
    _report_failures(ops, reasons, errors)

    blocks = useful = keys = gens = 0
    for table in tracer.tables:
        for entry in table.entries.values():
            gens += entry.size
            for block in entry.blocks:
                blocks += 1
                keys += len(block.keys)
                if block.coker.free_rank or block.coker.torsion:
                    useful += 1
    counts = dict(tracer.counts, blocks=blocks, blocks_useful=useful,
                  basis_keys=keys, generators=gens,
                  useful_ratio=useful / blocks if blocks else 0.0)
    stats = tracer.stats
    layer_self = {layer: sum(s[2] for name, s in stats.items()
                             if name.split(".")[0] == layer)
                  for layer in LAYERS}
    trace = {"wall_s": wall_t, "overhead_s": wall_t - wall_u,
             "unattributed_s": tracer.root_self(wall_t),
             "spans": sum(s[0] for s in stats.values())}

    def value(source):
        kind, key = source
        if kind == "count":
            return counts.get(key, 0)
        if kind == "layer":
            return layer_self[key]
        if kind == "trace":
            return trace[key]
        column = {"calls": 0, "incl": 1, "self": 2}[kind]
        return stats.get(key, [0, 0.0, 0.0])[column]

    metrics = {name: {"value": value(source), "unit": unit}
               for name, unit, source in PER_LAYER}
    print("workload %s, seed %d, traced: untraced wall %.3f s, traced "
          "wall %.3f s" % (workload.name, args.seed, wall_u, wall_t))
    for name, unit, _ in PER_LAYER:
        print("  %-38s %14.6g %s" % (name, metrics[name]["value"], unit))
    print("  layer self times + unattributed = %.6f s of %.6f s traced" % (
        sum(layer_self.values()) + trace["unattributed_s"], wall_t))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload.name,
                                                       args.seed))
    with open(path, "w") as fh:
        json.dump({"environment": env, "trace": trace, "counts": counts,
                   "spans": {name: {"calls": s[0], "inclusive_s": s[1],
                                    "self_s": s[2]}
                             for name, s in sorted(stats.items())},
                   "edges": [{"parent": p, "child": c, "calls": e[0],
                              "s": e[1]}
                             for (p, c), e in sorted(tracer.edges.items())]},
                  fh, indent=1)
    print("spans written to %s" % os.path.relpath(path, ROOT))
    nfailed = sum(len(bad) for bad in failed)
    return len(ops), nfailed, metrics


def _run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "facetor")):
        print("error: no facetor sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    threads = os.environ.pop("FACETOR_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    args.default_seed = workloads.inputs.DEFAULT_SEED
    if args.seed is None:
        args.seed = args.default_seed
    workload = workloads.WORKLOADS[args.workload]
    env = _environment(args, threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="docs-", dir=OUT_DIR)
    try:
        if args.trace:
            attempted, nfailed, metrics = _traced(args, workload, workdir, env)
        else:
            attempted, nfailed, metrics = _untraced(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": nfailed == 0, "attempted": attempted,
                      "failed": nfailed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
