"""canalgeo benchmark: one run of one workload.

usage: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (README.md in this directory says why each exists):

  scene-ref    the fixed reference scene through ``canalgeo run``, width 1
  scene-batch  a seeded scene of many small entries, ``--jobs 2``
  verify       a seeded in-process library run (acceptance 04, 05, 08)

Every repetition is a fresh Python process (``worker.py``).  Untraced runs
repeat the workload until ``--seconds`` have passed (at least twice) and
report medians of:

  wall_s       spawn -> end of the last analysis call (set-up included,
               correctness gates excluded)
  setup_s      spawn -> ready to analyse (scene workloads: ``import
               canalgeo.cli``; verify: import plus every chart and family
               built)
  peak_rss_mb  ru_maxrss of the workload process or of its largest child
  ok_frac      operations that succeeded / operations attempted

A traced run (``--trace 1``) makes one untraced and one traced repetition
and reports the per-layer metrics of BENCHMARK.json from the traced one.

The last line of standard output is the JSON result.  The program is run
from ``src/`` of the checkout; without it the benchmark exits with code 2.
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
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

MIN_REPS = 2
DEADLINE_S = 165.0  # a run must end within 180 s

WORKLOADS = ("scene-ref", "scene-batch", "verify")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        import inputs

        self.trace = trace
        self.start = clock()
        self.dir = WORK / f"{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.trace_file = WORK / f"trace-{workload}-s{seed}.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

        if workload == "scene-ref":
            self.mode, self.jobs, self.data = "scene", 1, inputs.reference_scene()
        elif workload == "scene-batch":
            self.mode, self.jobs = "scene", inputs.BATCH_JOBS
            self.data = inputs.batch_scene(seed)
        else:
            self.mode, self.jobs, self.data = "verify", 1, inputs.verify_inputs(seed)
        self.input = self.dir / "input.json"
        self.input.write_text(inputs.dump(self.data))
        self.reps: list[dict] = []
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return clock() - self.start

    def _spawn(self, name: str, mode: str, trace: bool) -> tuple:
        """Run one worker process; returns (spawn, exit time, result or None, its directory)."""
        rep_dir = self.dir / name
        rep_dir.mkdir()
        req = {
            "mode": mode,
            "input": str(self.input),
            "out": str(rep_dir / "out"),
            "jobs": self.jobs,
            "trace": trace,
            "trace_file": str(self.trace_file),
            "result": str(rep_dir / "result.json"),
        }
        (rep_dir / "request.json").write_text(json.dumps(req))
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        with open(rep_dir / "log.txt", "w") as log:
            spawn = clock()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(rep_dir / "request.json")],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
            )
            try:
                code = proc.wait(timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:  # timed out or interrupted
                    proc.kill()
                    proc.wait()
            exited = clock()
        result = None
        if code == 0:
            result = json.loads(Path(req["result"]).read_text())
        else:
            tail = (rep_dir / "log.txt").read_text()[-2000:]
            self.problems.append(f"{name}: worker exit {code}")
            print(f"{name}: worker exit {code}\n{tail}", file=sys.stderr)
        return spawn, exited, result, rep_dir

    def repetition(self, trace: bool) -> dict:
        import gates

        name = f"rep{len(self.reps)}"
        spawn, exited, result, rep_dir = self._spawn(name, self.mode, trace)
        crashed = result is None
        result = result or {}
        rep = {
            "wall": result.get("done", exited) - spawn,
            "setup": result.get("ready", exited) - spawn,
            "rss": result.get("peak_rss_mb", 0.0),
            "duration": exited - spawn,
            "values": dict(result.get("values", {})),
            "trace_result": result.get("trace"),
        }
        if self.mode == "scene":
            gate = gates.check_scene(self.data, rep_dir / "out", result.get("exit_code"), crashed)
            rep["values"].update(gate.get("values", {}))
        else:
            from inputs import verify_operations

            gate = {
                "attempted": result.get("attempted", verify_operations(self.data)),
                "failed": result.get("failed", 0),
                "problems": result.get("problems", ["crashed"]),
            }
        problems = [f"{name}: {p}" for p in gate["problems"]]
        rep["attempted"] = gate["attempted"]
        # a crash or a failed gate fails every operation of the repetition
        rep["failed"] = gate["attempted"] if crashed or problems else gate["failed"]
        self.problems.extend(problems)
        self.reps.append(rep)
        print(
            f"{name}{' (traced)' if trace else ''}: wall {rep['wall']:.3f} s, "
            f"setup {rep['setup']:.3f} s, rss {rep['rss']:.1f} MB, "
            f"{rep['failed']}/{rep['attempted']} operations failed"
        )
        shutil.rmtree(rep_dir / "out", ignore_errors=True)
        return rep

    def execute(self, seconds: float) -> None:
        # untimed: the first process after a pause pays for a cold file cache
        self._spawn("warmup", "probe", False)
        if self.trace:
            self.repetition(False)
            self.repetition(True)
            return
        while True:
            self.repetition(False)
            longest = max(r["duration"] for r in self.reps)
            if len(self.reps) >= MIN_REPS and self.elapsed() >= seconds:
                break
            if self.elapsed() + 1.2 * longest > DEADLINE_S:
                break


def _spread(values: list) -> str:
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"q1 {q1:.6g} q3 {q3:.6g}"
    return f"min {min(values):.6g} max {max(values):.6g}"


def end_to_end(run: Run) -> dict:
    walls = [r["wall"] for r in run.reps]
    setups = [r["setup"] for r in run.reps]
    rss = [r["rss"] for r in run.reps]
    attempted = sum(r["attempted"] for r in run.reps)
    failed = sum(r["failed"] for r in run.reps)
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": rss,
        "ok_frac": [(attempted - failed) / attempted],
    }
    for name, vals in samples.items():
        print(f"{name:12s} median {statistics.median(vals):.6g}  {_spread(vals)}  n={len(vals)}")
    return {name: statistics.median(vals) for name, vals in samples.items()}


def per_layer(run: Run, names: list) -> dict:
    plain, traced = run.reps
    values = dict(traced["values"])
    tr = traced["trace_result"] or {"stats": {}, "values": {}, "missing": []}
    values.update(tr["values"])
    values["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
    for target in tr["missing"]:
        print(f"trace: wrap target {target} is missing", file=sys.stderr)
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
            continue
        layer, _, stat = name.rpartition(".")
        out[name] = tr["stats"].get(layer, {}).get(stat, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so the finally blocks stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "canalgeo" / "cli.py").is_file():
        print(f"no canalgeo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        run.execute(args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"{name:44s} {value:.6g} {units[name]}")
    else:
        metrics = end_to_end(run)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for p in run.problems:
        print(f"FAILED {p}")
    result = {
        "correct": not run.problems,
        "attempted": sum(r["attempted"] for r in run.reps),
        "failed": sum(r["failed"] for r in run.reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
