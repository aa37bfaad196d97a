#!/usr/bin/env python3
"""Layered host-time benchmark of the repro design-space query stack.

Asks one design-space question after another for ``--seconds`` seconds
(a closed loop: the next question is asked when the previous answer is
in) on one workload from ``workloads.py``, checks the answers, and
prints one JSON result as the last line of standard output.  Every
time is host time of the benchmark's machine, not simulated
accelerator time.

    python3 layerbench/run.py --workload served --seed 1 --seconds 15 --trace 0

End-to-end metrics (``--trace 0``):

- ``answer_p10_ms``: 10th percentile over the run's questions of the
  wall time from the first call into ``repro.api`` to the
  cheapest-point answer.
- ``first_front_p10_ms``: 10th percentile of the wall time until the
  first exact Pareto front is in the caller's hands (the first streamed
  partial front on ``cluster_stream``; the final front elsewhere).
- ``setup_s``: median over five cold start-ups (model caches cleared)
  of bringing the workload's serving stack up and answering one
  warm-up question.

Times are corrected for the host's current speed.  The fixed work of
``probe.py`` runs right before each question and each start-up; a
latency is scaled by ``probe.NOMINAL_S`` over the 10th percentile of
the probe's times in the run, the set-up time by ``NOMINAL_S`` over the
median probe time at start-up.  On a shared host other tenants slow a
thread by up to 60%, in stretches of seconds to minutes, and the share
of a run they hit changes from run to run.  The low percentile keeps the
stretches the stack had to itself; the probe takes out what is left of
the host's drift between runs.  Over ten seeds, raw medians of
``adaptive`` spread (interquartile range over median) by 20-40%; these
figures by 2% on ``adaptive``, 4-5% on ``served`` and 5-9% on
``cluster_stream``, whose work runs in worker processes the probe does
not share.  The probe runs no code of the program, so a change to the
program moves these figures as it moves the raw times.

Per-layer metrics (``--trace 1``, see ``spans.py``) are medians over
questions of the time spent in, or the work counted at, each layer:
the facade calls, the ``emulate_batch`` kernels, block assembly, the
Pareto kernel, the sweep service, the HTTP client and payload codec,
the shard coordinator and its frames, and the adaptive explorer.  A
layer the workload does not use reads 0.  Traced runs also write their
spans to ``.layerbench/trace-<workload>-<seed>.jsonl``.

Correctness: every answer's cheapest point is re-evaluated on the
scalar engine, and answers are compared exactly with a fresh dense
vectorized evaluation of the same grid (every answer on ``served``,
every 4th on ``cluster_stream``, every 25th on ``adaptive``, and the
last).  A question that raises counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
#: at least this many questions per run, however long they take
MIN_QUESTIONS = 3
#: the run aborts (killing what it started) once this much time is gone
DEADLINE_S = 165.0
#: the workloads defined in workloads.py (named here so that a checkout
#: without the program can still parse its arguments)
WORKLOAD_NAMES = ("adaptive", "served", "cluster_stream")
#: per-layer metrics, by kind; times are ms per question, each scaled by
#: ``probe.NOMINAL_S`` over the probe time taken just before its question
LAYER_TIMES = (
    "session.sweep", "session.pareto", "session.cheapest", "kernel",
    "assemble", "front", "service.sweep", "http.client", "http.encode",
    "http.decode", "cluster.sweep", "frames",
)
LAYER_COUNTS = (
    "kernel.calls", "service.evaluations", "service.cache_hits",
    "http.requests", "cluster.releases",
)
EXPLORE_COUNTS = ("points_evaluated", "blocks_evaluated", "blocks_pruned", "rounds")


def per_layer(tracer, answers, scale) -> dict:
    """Per-layer metrics from a traced run (see the module docstring)."""
    n = len(answers)
    times = {
        name: [ms * s for ms, s in zip(tracer.per_question_ms(name, n), scale)]
        for name in LAYER_TIMES
    }
    values = {
        (f"{name}.ms" if "." not in name else f"{name}_ms"):
            statistics.median(times[name])
        for name in LAYER_TIMES
    }
    for name in LAYER_COUNTS:
        values[name] = statistics.median(tracer.per_question_count(name, n))
    # self time of the HTTP round trip: JSON, sockets and the server's
    # request handling, without the service's sweep and the payload build
    values["http.wire_ms"] = statistics.median(
        max(0.0, client - served - encoded)
        for client, served, encoded in zip(
            times["http.client"], times["service.sweep"], times["http.encode"]
        )
    )
    kernel_ms = sum(times["kernel"])
    kernel_points = sum(tracer.per_question_count("kernel.points", n))
    values["kernel.mpoints_per_s"] = (
        kernel_points / kernel_ms / 1000.0 if kernel_ms else 0.0
    )
    blocks = sum(tracer.per_question_count("cluster.blocks", n))
    values["cluster.ms_per_block"] = (
        sum(times["cluster.sweep"]) / blocks if blocks else 0.0
    )
    done = [a for a in answers if a is not None]
    for field in EXPLORE_COUNTS:
        values[f"explore.{field}"] = statistics.median(
            (a.explore or {}).get(field, 0) for a in done
        )
    values["stream.fronts"] = statistics.median(a.fronts for a in done)
    return values


def metric_unit(name: str) -> str:
    if name == "setup_s":
        return "s"
    if name == "kernel.mpoints_per_s":
        return "Mpt/s"
    if name.endswith("ms") or name == "cluster.ms_per_block":
        return "ms"
    return "count"


def run(workload, seed: int, seconds: float, trace: bool, stacks: list):
    """Set up, then ask questions for ``seconds``; returns the raw record."""
    import numpy as np

    from probe import probe_s
    from repro.core.cache import clear_model_caches
    from spans import Tracer

    tracer = Tracer()
    setup_s, setup_probe_s = [], []
    answers, probes, failures = [], [], 0
    stack = None
    try:
        for i in range(SETUP_REPEATS):
            if stacks:
                workload.close(stacks.pop())
            clear_model_caches()
            setup_probe_s.append(probe_s())
            start = time.perf_counter()
            stack = workload.open()
            stacks.append(stack)
            warmup = workload.grid(np.random.default_rng([seed, 1_000_000 + i]))
            workload.ask(stack, warmup, tracer)
            setup_s.append(time.perf_counter() - start)

        if trace:
            tracer.install()
        begin = time.perf_counter()
        q = 0
        while time.perf_counter() < begin + seconds or q < MIN_QUESTIONS:
            grid = workload.grid(np.random.default_rng([seed, q]))
            before = workload.counters(stack) if trace else {}
            probes.append(probe_s())
            tracer.question = q
            try:
                answers.append(workload.ask(stack, grid, tracer))
            except Exception:
                failures += 1
                answers.append(None)
                traceback.print_exc()
            finally:
                tracer.question = None
            if trace:
                after = workload.counters(stack)
                for name, value in after.items():
                    tracer.count(name, value - before.get(name, 0), question=q)
            q += 1
    finally:
        tracer.uninstall()
        while stacks:
            workload.close(stacks.pop())
    return tracer, answers, probes, failures, setup_s, setup_probe_s


def low_percentile(values) -> float:
    """The 10th percentile (nearest rank, rounded down)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 10]


def verify(workload, answers) -> tuple:
    from workloads import check_reference, check_scalar

    done = [(q, a) for q, a in enumerate(answers) if a is not None]
    last = done[-1][0] if done else -1
    checked, mismatches = 0, []
    for q, answer in done:
        problems = [check_scalar(answer, workload.n_pixels)]
        if q % workload.reference_every == 0 or q == last:
            problems.append(check_reference(answer, workload.n_pixels))
            checked += 1
        mismatches += [f"question {q}: {p}" for p in problems if p]
    return checked, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"layerbench: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # NumPy asks for transparent huge pages on large arrays, and whether
    # the host grants them changes from process to process: answers on
    # the large grids then flip between two speeds 30% apart.  Off, they
    # repeat.
    # Set before NumPy is first imported; cluster workers inherit it.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

    # library log lines go to stderr; stdout carries only the result
    result_fd = os.dup(1)
    os.dup2(2, 1)

    from probe import NOMINAL_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    #: the serving stack that is up, closed on the way out
    stacks = []

    def abort():
        print(f"layerbench: run exceeded {DEADLINE_S:g}s; aborting",
              file=sys.stderr, flush=True)
        for stack in list(stacks):
            try:
                workload.close(stack)
            except Exception:
                traceback.print_exc()
        os._exit(3)

    watchdog = threading.Timer(DEADLINE_S, abort)
    watchdog.daemon = True
    watchdog.start()

    tracer, answers, probes, failures, setup_s, setup_probes = run(
        workload, args.seed, args.seconds, bool(args.trace), stacks
    )
    if all(a is None for a in answers):
        print("layerbench: every question failed", file=sys.stderr)
        return 1
    checked, mismatches = verify(workload, answers)
    for line in mismatches:
        print(f"layerbench: MISMATCH {line}", file=sys.stderr)
    watchdog.cancel()

    if args.trace:
        values = per_layer(tracer, answers, [NOMINAL_S / p for p in probes])
        out_dir = ROOT / ".layerbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"trace-{workload.name}-{args.seed}.jsonl"))
    else:
        done = [a for a in answers if a is not None]
        host = NOMINAL_S / low_percentile(probes)
        values = {
            "answer_p10_ms": 1000.0 * host * low_percentile(
                a.answer_s for a in done
            ),
            "first_front_p10_ms": 1000.0 * host * low_percentile(
                a.first_front_s for a in done
            ),
            "setup_s": statistics.median(setup_s)
            * NOMINAL_S / statistics.median(setup_probes),
        }
    metrics = {
        name: {"value": value, "unit": metric_unit(name)}
        for name, value in values.items()
    }
    print(f"layerbench: {workload.name} seed={args.seed}: {len(answers)} questions, "
          f"{failures} failed, {checked} checked against the dense reference, "
          f"{len(mismatches)} mismatches; host probe median "
          f"{statistics.median(probes) * 1000:.1f} ms", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    result = {
        "correct": failures == 0 and not mismatches and checked > 0,
        "attempted": len(answers),
        "failed": failures,
        "metrics": metrics,
    }
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
