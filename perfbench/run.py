"""lcmf benchmark: run one workload's lcmf commands and print their metrics.

    python3 perfbench/run.py --workload scan-sparse --seed 1 --seconds 35 --trace 0

Run from anywhere; the repository root is the directory above this file, and
the program is run from its sources in src/ with the interpreter running this
script.  With --trace 0 the workload's command list is run again and again as
child processes, one at a time (a closed loop with one client), a fixed
number of times: --seconds divided by the workload's nominal pass length,
and at least three.  Two timed runs of the set-up command precede each pass,
and each time metric is taken from every command's median over the passes,
after scaling each run of it to a reference CPU speed (see measure.py).
With --trace 1 the list is run untraced for half of those passes and then
replayed in this process, with spans around each layer's calls, for the rest.

The number of passes, and so the number of commands attempted and failed,
depends only on the workload and --seconds, never on how fast the machine
happens to be, so two runs of the same code report the same counts.

Every output is checked against the benchmark's own reference (reference.py).
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics.  Lines before it list every metric with its unit and
the run's metadata; the per-command outcomes and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time

import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PER_PASS = 2  # set-up samples taken before each pass, spread over the run
MIN_PASSES = 3  # untraced passes per run, even past --seconds; each command's median is over at least 3
RUN_DEADLINE_S = 150.0  # commands that would start later are killed at once
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lcmf.cli; "
    "print(time.perf_counter() - t)"
)


def pass_count(workload: str, seconds: float) -> int:
    """Passes in an untraced run: about seconds of work on the reference machine, at least MIN_PASSES."""
    return max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))


def _passes(cmds, count: int, deadline: float, setup=None):
    """(count passes over cmds, set-up outcomes): with setup given, SETUP_PER_PASS runs of it precede each pass."""
    passes: list[list[measure.Outcome]] = []
    setups: list[measure.Outcome] = []
    for _ in range(count):
        if setup is not None:
            setups += [measure.run_command(setup, ROOT, deadline) for _ in range(SETUP_PER_PASS)]
        passes.append([measure.run_command(cmd, ROOT, deadline) for cmd in cmds])
    return passes, setups


def _import_seconds() -> float:
    """Median time to import lcmf.cli in a fresh interpreter, over three tries."""
    import subprocess

    tries = []
    for _ in range(3):
        res = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
            env=measure.child_env(ROOT), cwd=ROOT, timeout=measure.TIMEOUT_S, check=True,
        )
        tries.append(float(res.stdout.strip()))
    return statistics.median(tries)


def _check(cmds, outcomes_by_cmd) -> None:
    """Check every outcome against the reference, built only now (see measure.py)."""
    import reference

    ref = reference.PrimeReference(reference.reference_limit(cmds))
    for cmd, outcomes in outcomes_by_cmd:
        checker = reference.checker_for(cmd, ref)
        for outcome in outcomes:
            measure.check(outcome, checker)


def _metadata(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", *ref[5:].split("/")), encoding="ascii") as fh:
                ref = fh.read().strip()
        head = ref
    except OSError:
        pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "mpmath": version("mpmath"), "git_sha": head, "src_sha256": src.hexdigest(),
    }


def _per_command(passes, field: str, combine) -> float:
    """combine() over the commands of each command's median field across the passes.

    Taking the median per command, not per pass, lets one slow run of one
    command be outvoted by its other runs without taking its pass with it.
    """
    return combine(statistics.median(getattr(p[i], field) for p in passes)
                   for i in range(len(passes[0])))


def _check_cases(cmds, passes, cases_by_command) -> None:
    """Fail unless each replayed verify command checked as many cases as the program did.

    A command with no passing untraced run is skipped: it is already counted as failed.
    """
    for i, cmd in enumerate(cmds):
        counts = {p[i].cases for p in passes if p[i].ok and p[i].cases is not None}
        if cmd.kind == "verify" and counts and counts != {cases_by_command[i]}:
            raise RuntimeError(
                f"replay of {cmd.label!r} checked {cases_by_command[i]} cases, "
                f"the program {sorted(counts)}: replay.py no longer matches lcmf.verify")


def untraced(cmds, count: int, deadline: float):
    setup_cmd = workloads.setup_command()
    warm = measure.run_command(setup_cmd, ROOT, deadline)  # fills bytecode and page caches
    passes, setups = _passes(cmds, count, deadline, setup_cmd)
    _check(cmds + [setup_cmd], [(c, [p[i] for p in passes]) for i, c in enumerate(cmds)]
           + [(setup_cmd, [warm] + setups)])
    listed = [o for p in passes for o in p]
    metrics = {
        "wall_s": _per_command(passes, "ref_wall_s", sum),
        "cpu_s": _per_command(passes, "ref_cpu_s", sum),
        "peak_rss_mb": _per_command(passes, "peak_rss_mb", max),
        "ok_ratio": sum(o.ok for o in listed) / len(listed),
        "setup_s": statistics.median(o.ref_wall_s for o in setups),
    }
    return metrics, listed + [warm] + setups, len(passes)


def traced(cmds, count: int, deadline: float, span_path: str):
    passes, _ = _passes(cmds, max(1, count // 2), deadline)
    import_s = _import_seconds()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import replay  # imports lcmf into this process; no child is started after this

    runs = []
    for _ in range(max(1, count - count // 2)):
        tracer = replay.Tracer()
        probe = measure.speed_probe()
        stolen, t0 = measure.stolen_seconds(), time.perf_counter()
        gauges = replay.replay([c.argv for c in cmds], tracer)
        total = time.perf_counter() - t0 - (measure.stolen_seconds() - stolen)
        total *= measure.PROBE_REF_S / probe  # on the untraced wall_s's scale
        runs.append({**tracer.totals(), **{k: float(v) for k, v in tracer.counts.items()},
                     **gauges, "trace.total_s": total})
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write(span_path, [c.label for c in cmds])
    _check(cmds, [(c, [p[i] for p in passes]) for i, c in enumerate(cmds)])
    _check_cases(cmds, passes, tracer.cases_by_command)

    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    untraced_wall = _per_command(passes, "ref_wall_s", sum)
    metrics["trace.overhead_s"] = metrics.pop("trace.total_s") - untraced_wall
    metrics["cli.import_s"] = import_s
    outcomes = [o for p in passes for o in p]
    return metrics, outcomes, len(passes)


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lcmf", "cli.py")):
        print(f"error: no lcmf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = _declared(args.trace)
    measure.pin()  # the speed probe must run on the children's CPU, and the replay too

    cmds = workloads.commands(args.workload, args.seed)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    count = pass_count(args.workload, args.seconds)
    if args.trace:
        metrics, outcomes, passes = traced(
            cmds, count, deadline, os.path.join(OUT, f"spans-{tag}.json"))
    else:
        metrics, outcomes, passes = untraced(cmds, count, deadline)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: (metrics[name], unit) for name, unit in units.items()}
    meta = _metadata(args)
    meta["passes"] = passes
    meta["stolen_share"] = sum(o.stolen_s for o in outcomes) / sum(o.wall_s for o in outcomes)
    meta["probe_s_median"] = statistics.median(o.probe_s for o in outcomes)
    failed = [o for o in outcomes if not o.ok]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "outcomes": [vars(o) for o in outcomes]}, fh, indent=1)

    print("# " + json.dumps(meta))
    for o in sorted({(o.label, o.reason) for o in failed}):
        print(f"# failed: {o[0]}: {o[1]}")
    print(f"# failed {len(failed)} of {len(outcomes)} commands run, set-up runs included")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps({
        # correct: no command that exited 0 printed a wrong answer; commands
        # that exited nonzero or timed out are counted in failed instead
        "correct": not any(o.code == 0 and not o.ok for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
