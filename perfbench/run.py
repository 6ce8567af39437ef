"""Benchmark for the ocrdrift CLI: time to result on seeded synthetic workloads.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --smoke

A run repeats, for about `--seconds`: generate the workload's inputs
from the seed into a fresh directory, run the workload's command
sequence on them, then generate the inputs again until the repetition
has SETUPS_PER_REPETITION timed setups (`setup_s` is the median of every
setup in the run). Before each timed step the files the run has written
so far are flushed to disk, untimed, so that no step waits on the
writeback of an earlier one. Each command is its own `python -m
ocrdrift.cli` process with PYTHONPATH=src, started only after the
previous one exited: a closed loop with one client. Outputs
are checked after every repetition; each command and each check is one
operation.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` repetitions alternate between plain and traced (each command
run through traced_cli.py) and the last line reports the per-layer
metrics from the traced ones. `--smoke` runs every workload at a tiny
size in both modes and checks every metric named in BENCHMARK.json
appears with its unit.

Everything is written under .perfbench_work/ in the checkout; a JSON
record of each run (machine, reference-kernel times, per-repetition
walls, checks, curve hashes and, when traced, all spans) is kept in
.perfbench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS_PER_REPETITION = 5
COMMAND_TIMEOUT_S = 150

# end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "main_cmd_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Repetition:
    traced: bool
    setup_s: list = field(default_factory=list)  # one sample per setup
    pipeline_s: float = 0.0
    command_s: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    failed_commands: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # one span list per traced process, setup first
    absent: list = field(default_factory=list)


def run_child(argv: list[str], log_path: Path) -> tuple[float, int, float]:
    """Run one command to completion: (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 reaps the child and returns its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def flush(directory: Path) -> None:
    """fsync every file under `directory`: the run's own files only."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_setup(inputs: Path, out: Path, seed: int, sizes: dict, traced: bool):
    """Generate the inputs into a fresh directory: (seconds, spans, absent lookups)."""
    from spans import Tracer
    from workloads import setup

    inputs.mkdir(parents=True)
    tracer = Tracer("setup")
    if traced:
        tracer.install()
    started = time.perf_counter()
    try:
        setup(inputs, out, seed, sizes)
    finally:
        elapsed = time.perf_counter() - started
        tracer.restore()
    return elapsed, tracer.spans, tracer.absent


def run_repetition(workload, seed: int, sizes: dict, work: Path, traced: bool, rep_id: str) -> Repetition:
    """Set up fresh inputs, run the command sequence on them, then set up
    again for more setup samples."""
    from checks import sha256
    from workloads import CONFIG, check_outputs

    inputs, out, logs = work / f"inputs-{rep_id}", work / "out", work / "logs"
    if out.exists():
        # set aside, not deleted: a deletion can keep the file system busy
        # while the next repetition is timed
        out.rename(work / f"out-before-{rep_id}")
    logs.mkdir(parents=True, exist_ok=True)
    rep = Repetition(traced=traced)
    flush(work)
    elapsed, setup_spans, rep.absent = run_setup(inputs, out, seed, sizes, traced)
    rep.setup_s.append(elapsed)
    rep.spans.append(setup_spans)
    flush(work)
    span_files = []
    start = time.perf_counter()
    for command in workload.commands:
        cli = ["--config", str(inputs / CONFIG)]
        if traced:
            span_files.append(logs / f"{rep_id}-{command}.spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_files[-1]), rep_id, command, *cli]
        else:
            argv = [sys.executable, "-m", "ocrdrift.cli", command, *cli]
        wall, code, rss = run_child(argv, logs / f"{rep_id}-{command}.log")
        rep.command_s[command] = wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if code != 0:
            rep.failed_commands.append(f"{command} exited {code}")
    rep.pipeline_s = time.perf_counter() - start
    rep.checks, hashed = check_outputs(workload, out, sizes)
    rep.hashes = {str(p.relative_to(out)): sha256(p) for p in hashed if p.is_file()}
    # One setup is short (about 0.1 s), so each repetition samples several.
    # These come after the commands: setups in the first seconds of a run
    # were the slowest of the run in 19 of 20 runs, by about 30%.
    for k in range(1, SETUPS_PER_REPETITION):
        flush(work)
        rep.setup_s.append(run_setup(work / f"inputs-{rep_id}-{k}", out, seed, sizes, False)[0])
    for path in span_files:
        if path.is_file():
            payload = json.loads(path.read_text(encoding="utf-8"))
            rep.spans.append(payload["spans"])
            rep.absent.extend(payload["absent"])
    return rep


def _metrics(workload, reps: list[Repetition], reference: list[float], trace: bool):
    """(metrics, absent lookups, absent metrics): end-to-end ones from the
    plain repetitions, or per-layer ones from the traced repetitions."""
    from spans import COMMANDS, LAYER_METRICS, Summary, absent_metrics, layer_values

    median = statistics.median
    plain = [r for r in reps if not r.traced]
    if not trace:
        values = {
            "setup_s": median(t for r in plain for t in r.setup_s),
            "pipeline_s": median(r.pipeline_s for r in plain),
            "main_cmd_s": median(r.command_s[workload.main_command] for r in plain),
            "peak_rss_mb": median(r.peak_rss_mb for r in plain),
        }
        return {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}, [], []

    traced = [r for r in reps if r.traced]
    absent = sorted(set().union(*(r.absent for r in traced)))
    per_rep = [layer_values(Summary(r.spans)) for r in traced]
    values = {m: median(v[m] for v in per_rep) for m in LAYER_METRICS}
    for command in COMMANDS:
        values[f"cmd.{command.replace('-', '_')}_s"] = median(r.command_s.get(command, 0.0) for r in plain)
    values["trace.overhead_s"] = median(r.pipeline_s for r in traced) - median(r.pipeline_s for r in plain)
    values["machine.ref_s"] = median(reference)
    units = {m: unit for m, (unit, *_) in LAYER_METRICS.items()}
    metrics = {m: {"value": v, "unit": units.get(m, "s")} for m, v in values.items()}
    return metrics, absent, absent_metrics(absent)


def run_workload(workload, seed: int, seconds: float, trace: bool, sizes: dict, work: Path) -> dict:
    """One benchmark run; returns the result object and writes the run record."""
    import machine
    from checks import Check
    from workloads import oracle

    import ocrdrift.cli  # noqa: F401  (imports every layer before anything is timed)

    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    reference = [machine.reference_seconds()]

    # Every repetition sets up its own inputs first, so the setup samples
    # spread over the run rather than landing in one busy stretch of the
    # machine.
    reps: list[Repetition] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        reps.append(run_repetition(workload, seed, sizes, work, traced, f"r{len(reps)}"))
        last = time.perf_counter() - began
        if len(reps) >= (2 if trace else 1) and time.perf_counter() - started + last > seconds:
            break

    # untimed checks: identical outputs in every repetition, and the oracle
    extra = [
        Check(f"r{i} outputs identical to r0", rep.hashes == reps[0].hashes,
              f"differ: {sorted(set(rep.hashes.items()) ^ set(reps[0].hashes.items()))}")
        for i, rep in enumerate(reps[1:], start=1)
    ]
    if (check := oracle(workload, out)) is not None:
        extra.append(check)
    reference.append(machine.reference_seconds())

    attempted = sum(len(workload.commands) + len(r.checks) for r in reps) + len(extra)
    failures = [f for r in reps for f in r.failed_commands]
    failures += [f"{c.name}: {c.detail}" for r in reps for c in r.checks if not c.ok]
    failures += [f"{c.name}: {c.detail}" for c in extra if not c.ok]

    metrics, absent, absent_names = _metrics(workload, reps, reference, trace)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine.describe(ROOT),
        "machine.ref_s": {"before": reference[0], "after": reference[1]},
        "repetitions": [
            {**{f.name: getattr(r, f.name) for f in fields(r) if f.name not in ("spans", "checks")},
             "checks": [asdict(c) for c in r.checks]}
            for r in reps
        ],
        "extra_checks": [asdict(c) for c in extra],
        "failures": failures,
        "absent": {"lookups": absent, "metrics": absent_names},
        "result": result,
        "spans": {f"r{i}": r.spans for i, r in enumerate(reps) if r.traced},
    }
    records = work.parent / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{workload.name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {"result": result, "record": record, "record_path": record_path}


def report(run: dict) -> None:
    record, result = run["record"], run["result"]
    reps = record["repetitions"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(reps)} repetitions ({sum(r['traced'] for r in reps)} traced)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ops_frac':<34} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["absent"]["metrics"]:
        print(f"  absent: {', '.join(record['absent']['metrics'])}")
    ref = record["machine.ref_s"]
    print(f"  machine.ref_s before {ref['before']:.4f} s, after {ref['after']:.4f} s")
    print(f"  machine {json.dumps(record['machine'])}")
    print(f"  record {run['record_path'].relative_to(ROOT)}")


def smoke() -> int:
    """Every workload, tiny, in both modes: metric names and units match BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            run = run_workload(workload, 1, 0, bool(trace), workload.smoke_sizes, WORK / "smoke")
            report(run)
            got = {name: m["unit"] for name, m in run["result"]["metrics"].items()}
            if got != wanted[trace]:
                diff = sorted(set(got.items()) ^ set(wanted[trace].items()))
                problems.append(f"{workload.name} trace {trace}: metrics differ from BENCHMARK.json: {diff}")
            if not run["result"]["correct"]:
                problems.append(f"{workload.name} trace {trace}: {run['record']['failures']}")
    shutil.rmtree(WORK / "smoke", ignore_errors=True)
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the command it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ocrdrift" / "cli.py").is_file():
        print(f"error: no ocrdrift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    run = run_workload(workload, args.seed, args.seconds, bool(args.trace), workload.sizes, work)
    shutil.rmtree(work, ignore_errors=True)
    report(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
