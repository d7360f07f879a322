"""Benchmark of the sinr-backbone simulator: one workload per invocation.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. A run makes its instances from the seed, builds every
selection family they need from a cold process (the set-up), then runs the
instances one after another, single-threaded, in whole passes over the
list until --seconds have elapsed. Every instance output is checked. The
last line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1. Details,
spans and the result fingerprint go to .bench_build/perfbench/. See
perfbench/README.md for the metrics and how instance times are scaled.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread, as the load model says

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_CHILD_TIMEOUT = 150


class Op(NamedTuple):
    index: int  # instance in the list
    seconds: float  # as measured
    scaled: float  # at the reference host speed (see hostspeed.py)
    outcome: object


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up and print it (used for set-up repeats)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _load():
    """Import sinrbackbone from this checkout's src/ and nowhere else, then
    the benchmark modules built on it."""
    if not (SRC / "sinrbackbone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'sinrbackbone'}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import sinrbackbone

    if Path(sinrbackbone.__file__).resolve().parent != SRC / "sinrbackbone":
        sys.exit(f"perfbench: imported sinrbackbone from {sinrbackbone.__file__}")
    import spans
    import workloads

    return sinrbackbone, workloads, spans


def _setup(wl, w, seed, host=None):
    """Instances plus every family they need.
    Returns (instances, sets, seconds, seconds at the reference speed)."""
    t0 = time.perf_counter()
    instances = wl.make_instances(w, seed)
    family_sets = wl.build_families(instances)
    t1 = time.perf_counter()
    scaled = host.scale(t1 - t0, t0, t1) if host is not None else t1 - t0
    return instances, family_sets, t1 - t0, scaled


def _setup_in_child(name, seed):
    """One more cold set-up, in a fresh interpreter.
    Returns (seconds, seconds at the reference speed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT, check=True,
    )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["seconds"], rec["scaled"]


def _loop(op, count, seconds, host=None, tracer=None, adjacency=None):
    """Closed loop, one client: whole passes over the instance list until
    `seconds` have elapsed (at least one pass). Returns the Ops."""
    ops = []
    start = time.perf_counter()
    while True:
        for i in range(count):
            if tracer is not None:
                tracer.op, tracer.instance = len(ops), i
                tracer.adjacency = adjacency[i]
                span = tracer.open("bench.instance")
            gc.collect()  # the last op's garbage, so no op pays for another's
            t0 = time.perf_counter()
            seconds_i, outcome = op(i)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.op = tracer.instance = None
            scaled = host.scale(seconds_i, t0, t1) if host is not None else seconds_i
            ops.append(Op(i, seconds_i, scaled, outcome))
        if time.perf_counter() - start >= seconds:
            return ops


def _account(ops, first):
    """Failed and incorrect ops. An op fails on a SimulationError, a failed
    verdict or replay, or a result that differs from the instance's first run."""
    failed, problems = 0, []
    for o in ops:
        out, i = o.outcome, o.index
        bad = list(out.problems)
        if out.digest != first[i].digest or out.error != first[i].error:
            bad.append("differs-from-first-run")
        if bad:
            problems.append({"instance": i, "problems": bad})
        if bad or out.error:
            failed += 1
    return failed, problems


def _fingerprint(first):
    h = hashlib.sha256()
    for out in first:
        h.update((out.digest or f"error:{out.error}").encode("ascii") + b"\n")
    return h.hexdigest()


def measure(name, seed, seconds, trace, workloads=None, setup_reps=None):
    """Run one workload; returns the result record (metrics and details)."""
    pkg, wl, spans_mod = _load()
    w = (workloads or wl.WORKLOADS)[name]
    reps = w.setup_reps if setup_reps is None else setup_reps
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    tracer = spans_mod.Tracer() if trace else None
    # host speed is sampled for the untraced run only; the traced run
    # reports raw times and compares them within its own process
    host = None if trace else HostSpeed().start()
    try:
        if tracer is not None:
            tracer.install(pkg)
            span = tracer.open("bench.setup")
        instances, family_sets, *setup_first = _setup(wl, w, seed, host)
        if tracer is not None:
            tracer.close(span)
        graphs = [pkg.physical.build_graph(inst) for inst in instances]
        adjacency = [
            {u: frozenset(vs) for u, vs in g.adjacency.items()} for g in graphs
        ]
        if w.via_cli:
            work.mkdir(parents=True, exist_ok=True)
            paths = []
            for i, inst in enumerate(instances):
                paths.append(str(work / f"instance-{i}.json"))
                pkg.physical.save_instance(inst, paths[-1])
            out_dir = str(work / "out")

            def op(i):
                return wl.run_cli(paths[i], graphs[i], out_dir)
        else:

            def op(i):
                return wl.run_direct(instances[i])

        setups = [tuple(setup_first)]
        if trace:
            ops = _loop(op, len(instances), seconds, None, tracer, adjacency)
        else:
            # half the passes before the repeated set-ups and half after, so
            # that each instance's passes spread over the whole run
            t0 = time.perf_counter()
            ops = _loop(op, len(instances), seconds / 2, host)
            first_window = time.perf_counter() - t0
            setups += [_setup_in_child(name, seed) for _ in range(reps - 1)]
            ops += _loop(op, len(instances), seconds - first_window, host)
        first = [o.outcome for o in ops[: len(instances)]]
        overhead = None
        if tracer is not None:
            tracer.uninstall()
            # one untraced pass over the list against the traced first pass
            replay = _loop(op, len(instances), 0)
            traced = ops[: len(instances)]
            overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in replay)
            ops_all = ops + replay
        else:
            ops_all = ops
        failed, problems = _account(ops_all, first)
    finally:
        if host is not None:
            host.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    ok_rounds = [out.rounds for out in first if out.error is None]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "instances": len(instances),
        "samples": len(ops),
        "passes": len(ops) // len(instances),
        "attempted": len(ops_all),
        "failed": failed,
        "failed_frac": failed / len(ops_all),
        "problems": problems[:20],
        "errors": sorted({o.outcome.error for o in ops_all if o.outcome.error}),
        "fingerprint": _fingerprint(first),
        "instance_list": [
            {"n": inst.n, "delta": g.delta, "rounds": out.rounds, "digest": out.digest,
             "seconds": [o.seconds for o in ops if o.index == i],
             "scaled": [o.scaled for o in ops if o.index == i]}
            for i, (inst, g, out) in enumerate(zip(instances, graphs, first))
        ],
        "setup_runs": [{"seconds": raw, "scaled": scaled} for raw, scaled in setups],
        "correct": not problems,
    }
    if trace:
        extra = {
            "family_sets": family_sets,
            "trace_bytes": sum(o.outcome.trace_bytes for o in ops),
        }
        metrics = tracer.layer_metrics(len(ops), extra)
        metrics["tracing_overhead"] = (overhead, "ratio")
        metrics["failed_frac"] = (record["failed_frac"], "ratio")
        record["not_traced"] = tracer.missing
        tracer.write(str(OUT / f"spans-{name}-seed{seed}.jsonl"))
    else:
        # each instance's time is the median of its passes at reference speed
        per_instance = [
            statistics.median(o.scaled for o in ops if o.index == i)
            for i in range(len(instances))
        ]
        verified = [i for i in range(len(instances)) if not any(
            o.outcome.error or o.outcome.problems for o in ops if o.index == i)]
        metrics = {
            "setup_s": (statistics.median(scaled for _raw, scaled in setups), "s"),
            "instances_per_s": (len(verified) / sum(per_instance[i] for i in verified)
                                if verified else 0.0, "1/s"),
            "instance_s.p50": (statistics.median(per_instance), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "sim_rounds.mean": (statistics.fmean(ok_rounds) if ok_rounds else 0.0, "count"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def _reference(record):
    """Compare the fingerprint with the one recorded for this workload and
    seed, if any; a perf-only change must leave it identical."""
    try:
        with open(HERE / "fingerprints.json", encoding="utf-8") as fh:
            known = json.load(fh).get(record["workload"], {}).get(str(record["seed"]))
    except FileNotFoundError:
        known = None
    if known is None:
        return "no reference for this seed"
    return "matches reference" if known == record["fingerprint"] else "DIFFERS from reference"


def main(argv=None):
    args = _parse_args(argv)
    _pkg, wl, _spans = _load()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    if args.setup_only:
        with HostSpeed() as host:
            _i, _f, seconds, scaled = _setup(wl, wl.WORKLOADS[args.workload], args.seed, host)
        print(json.dumps({"seconds": seconds, "scaled": scaled}))
        return 0
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    record["fingerprint_check"] = _reference(record)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload} seed={args.seed}: {record['samples']} samples, "
          f"{record['passes']} passes over {record['instances']} instances, failed {record['failed']}/{record['attempted']}, "
          f"fingerprint {record['fingerprint'][:16]} ({record['fingerprint_check']})",
          file=sys.stderr)
    for k, m in record["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
