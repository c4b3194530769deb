"""The benchmark's workloads: the README's CLI invocations, run in-process.

Every workload is a closed loop with one caller: a certificate is one pass
over the workload's invocations, and the next pass starts when the previous
one has returned.  Each invocation writes into its own directory under a
temporary directory that the benchmark owns.  The seed is the sampler's
``--seed`` on prox-chain and light-certs; well-trace has no random input.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Callable

_GAUSSIAN_RATES = (
    ("gaussian-rates", "--channel", "prox", "--alpha", "1", "--eta", "1", "--m0", "1",
     "--var0", "1", "--k", "50"),
    ("gaussian-rates", "--channel", "heat", "--alpha", "1", "--s", "2", "--m", "0"),
    ("gaussian-rates", "--channel", "ou", "--gamma", "1", "--alpha", "0.1", "--beta", "100",
     "--m", "0"),
)
_LIGHT_CERTS = _GAUSSIAN_RATES + (("gap", "--eps", "0.5", "--fi-floor", "10"), ("proxgrad",))
# the README's sampler line at 1/40 of its iterations keeps the sampler layer
# in a workload whose medians hold steady (see prox-chain below)
_SHORT_CHAIN = ("sampler", "--d", "5", "--alpha", "1", "--L", "1", "--eta", "auto",
                "--iters", "500")
_COUNTEREXAMPLE = ("counterexample", "--M", "2", "--L", "2")


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], tuple]  # seed -> argv tuples of one certificate
    warmup: Callable[[int], tuple]  # seed -> argv tuples run once, untimed, first


WORKLOADS = {
    w.name: w
    for w in (
        # BENCHMARK.json says why each workload is there
        Workload(
            "well-trace",
            lambda seed: (_COUNTEREXAMPLE,),
            # four rows, the last at t = 50 on the widest grid: same code paths, 1/15 of the rows
            lambda seed: (_COUNTEREXAMPLE + ("--t-points", "3"),),
        ),
        # Not in BENCHMARK.json: on a 2-vCPU sandbox its medians spread by 41%
        # between runs, beyond any bound the benchmark can fix.  Run it by hand.
        Workload(
            "prox-chain",
            lambda seed: (("sampler", "--seed", str(seed)),),
            lambda seed: (("sampler", "--seed", str(seed), "--iters", "2000"),),
        ),
        Workload(
            "light-certs",
            lambda seed: _LIGHT_CERTS + (_SHORT_CHAIN + ("--seed", str(seed)),),
            lambda seed: _LIGHT_CERTS + (_SHORT_CHAIN + ("--seed", str(seed)),),
        ),
    )
}


@dataclass
class Invocation:
    argv: tuple
    out_dir: str
    code: int | None = None  # None when the call raised
    stdout: str = ""
    error: str = ""


def run_certificate(main, argvs, rep_dir: str):
    """One pass over ``argvs`` through ``main``; returns (wall_s, cpu_s, invocations).

    The directories are made before the clock starts; the timed region is the
    calls themselves, with their standard output captured.
    """
    calls = []
    for i, argv in enumerate(argvs):
        out = os.path.join(rep_dir, str(i))
        os.makedirs(out)
        calls.append(Invocation(argv, out))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for call in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                call.code = main([*call.argv, "--out-dir", call.out_dir])
        except Exception as exc:  # a raising invocation is a failed operation, not a crash
            call.error = f"{type(exc).__name__}: {exc}"
        call.stdout = buf.getvalue()
    return time.perf_counter() - wall0, time.process_time() - cpu0, calls
