"""fplab benchmark: time to a certificate, plus a traced run for per-layer figures.

    python3 bench/run.py --workload {well-trace,light-certs,prox-chain} \
        --seed N --seconds S --trace {0,1}

BENCHMARK.json lists the gated workloads, well-trace and light-certs;
prox-chain (the sampler at its defaults) is there to be run by hand, see
workloads.py.  Run from the repository root; it needs numpy, scipy and
mpmath.  The CLI runs in-process through ``fplab.cli.main``, in closed loops:
one certificate (one pass over the workload's invocations) after another for
S seconds, after one untimed warm-up pass.  Outputs go to a temporary directory under
``.bench_out/``, which is removed afterwards; the spans of a traced run and a
JSON report of every run stay there.

--trace 0 reports, as medians with their sample counts:
  setup_s      fresh-interpreter ``import fplab`` plus workload construction,
               median over ten interpreters
  cert_s       wall time of one certificate
  cpu_s        process CPU time of one certificate, all threads
  peak_rss_mb  peak resident set of the fresh process that ran the workload
and prints, besides, the tail of cert_s where a run holds 20 or more
certificates, the chain steps/s inside ``run_chain`` where a workload runs
the sampler, and the error rate with its attempted count.

--trace 1 times S/2 seconds untraced, then S/2 seconds with the layer tracer
installed, and reports the per-layer figures of ``tracer.Tracer.metrics``
plus the traced cert_s and the tracing overhead (traced minus untraced).

Every invocation's outputs pass through the correctness gate (gate.py), and
a deliberately perturbed copy of them must fail it.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # interpreters that only set up, besides the one that measures
DEADLINE_S = 170.0  # the whole run, children included
TAIL_MIN_CERTS = 20  # tail percentile reported with >= 10 samples beyond it, at or above p50

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, run_certificate  # noqa: E402

E2E_UNITS = {"setup_s": "s", "cert_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _threads() -> str:
    return str(min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Child: one fresh interpreter


def _loop(main, argvs, work: Path, tag: str, seconds: float) -> list:
    reps, start = [], time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_certificate(main, argvs, str(work / f"{tag}{len(reps)}")))
    return reps


@contextlib.contextmanager
def _chain_timer(sampler):
    """Times each ``sampler.run_chain`` call: one clock pair per chain, no tracing."""
    run_chain, chains = sampler.run_chain, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        out = run_chain(*args, **kwargs)
        chains.append((len(out.trial_counts), time.perf_counter() - start))
        return out

    sampler.run_chain = timed
    try:
        yield chains
    finally:
        sampler.run_chain = run_chain


def _gate(reps: list) -> dict:
    import gate

    g = gate.Gate()
    attempted = failed = 0
    problems = []
    for _, _, calls in reps:
        for call in calls:
            attempted += 1
            try:
                found = g.check(gate.parse(call))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems.append(f"{' '.join(call.argv)}: {'; '.join(found[:3])}")
    # non-vacuity: a perturbed copy of the last certificate's outputs must fail
    probe = gate.Gate()
    perturbed = [gate.perturb(gate.parse(call)) for call in reps[-1][2]]
    perturbed = [d for d in perturbed if d is not None]
    self_check = bool(perturbed) and all(probe.check(d) for d in perturbed)
    return {"attempted": attempted, "failed": failed, "problems": problems[:10],
            "self_check": self_check, "diag": g.diag, "cli_3se_fails": g.cli_3se_fails}


def child(args) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fplab.cli

    workload = WORKLOADS[args.workload]
    argvs, warmup = workload.invocations(args.seed), workload.warmup(args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.child == "measure":
        import numpy
        import scipy

        work = Path(args.work)
        w0 = time.perf_counter()
        run_certificate(fplab.cli.main, warmup, str(work / "warmup"))
        result["warmup_s"] = time.perf_counter() - w0
        seconds = args.seconds / 2 if args.trace else args.seconds
        with _chain_timer(fplab.sampler) as chains:
            reps = _loop(fplab.cli.main, argvs, work, "rep", seconds)
        result["chain_steps_per_s"] = [steps / dur for steps, dur in chains]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["reps"] = [(wall, cpu) for wall, cpu, _ in reps]
        result["versions"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            with tracer.installed():
                main = tracer.timed(fplab.cli.main, "cli.main", "cli")
                traced = _loop(main, argvs, work, "traced", seconds)
            result["traced_reps"] = [(wall, cpu) for wall, cpu, _ in traced]
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            result["spans"] = {"path": str(spans.relative_to(ROOT)),
                               "kept": len(tracer.spans), "dropped": tracer.dropped}
            reps = reps + traced
        result.update(_gate(reps))
        if args.trace:
            diag = result["diag"]
            rows = diag["gaussian.rows"] / len(reps) * len(traced)
            result["layers"] = tracer.metrics(len(traced), rows, diag)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _spawn(args, mode: str, result: Path, work: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result), "--work", str(work)]
    # GIT_CEILING_DIRECTORIES keeps the CLI's `git describe` from searching above the checkout
    env = dict(os.environ, FPLAB_THREADS=_threads(), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Parent: set-up samples, one measuring child, the report


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _tail(values: list):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < TAIL_MIN_CERTS:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _report(setups: list, res: dict) -> dict:
    walls = [w for w, _ in res["reps"]]
    cpus = [c for _, c in res["reps"]]
    n = len(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "cert_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} interpreters")
    print(f"cert_s       {metrics['cert_s']:.4f} s    median of {n} certificates")
    tail = _tail(walls)
    if tail:
        print(f"cert_s.tail  {tail[1]:.4f} s    p{tail[0]:.1f} of {n} certificates")
    else:
        print(f"cert_s.tail  not reported: {n} certificates < {TAIL_MIN_CERTS}")
    print(f"cpu_s        {metrics['cpu_s']:.4f} s    median of {n} certificates")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def _print_layers(layers: dict) -> dict:
    for name, (value, unit) in layers.items():
        print(f"{name:36s} {value:.6g} {unit}")
    return {name: value for name, (value, unit) in layers.items()}


def parent(args) -> int:
    if not (SRC / "fplab" / "cli.py").is_file():
        print(f"error: no fplab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setups.append(_spawn(args, "setup", tmp / f"setup{i}.json", tmp, deadline)["setup_s"])
        res = _spawn(args, "measure", tmp / "measure.json", tmp / "work", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["setup_s"])

    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": os.cpu_count(), "FPLAB_THREADS": _threads(),
             **res["versions"], "src_lines": _src_lines(), "warmup_s": res["warmup_s"]}
    print("facts " + json.dumps(facts))
    if args.trace:
        walls = [w for w, _ in res["reps"]]
        traced = [w for w, _ in res["traced_reps"]]
        layers = {**res["layers"],
                  "trace.cert_s": (statistics.median(traced), "s"),
                  "trace.overhead_s": (statistics.median(traced) - statistics.median(walls), "s")}
        print(f"untraced certificates: {len(walls)}, traced: {len(traced)}; spans {res['spans']}")
        values = _print_layers(layers)
        units = {name: unit for name, (_, unit) in layers.items()}
    else:
        values = _report(setups, res)
        units = E2E_UNITS
        chains = res["chain_steps_per_s"]
        if chains:
            print(f"chain_steps_per_s {statistics.median(chains):.1f} steps/s    "
                  f"median of {len(chains)} chains")
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate   {failed / attempted:.6g}    {failed} failed of {attempted} attempted")
    if args.workload == "prox-chain":
        print(f"cli 3-se verdict failed on {res['cli_3se_fails']} of {attempted} invocations "
              f"(recorded, not counted)")
    print(f"gate diagnostics {json.dumps(res['diag'])}; perturbed outputs flagged: "
          f"{res['self_check']}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    line = {"correct": failed == 0 and res["self_check"], "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    report = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({**line, "facts": facts, "setups": setups, "child": res},
                                 indent=1))
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--result", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.child:
        child(args)
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
