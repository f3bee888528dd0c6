"""Run lcmf commands one at a time as child processes and measure each.

Wall time is taken around the child's whole life.  CPU time and peak RSS come
from os.wait4 on that one child: RUSAGE_CHILDREN would keep a running maximum
over every child reaped so far, so one large scan would show up in the peak
of every later command.

On a virtual machine the hypervisor may give this guest's CPU to another guest
while the child wants to run.  That stolen time stretches the child's wall
time with no change in the program, and on a shared host it comes and goes
for minutes at a time.  The kernel counts it per CPU in /proc/stat.  So every
child runs pinned to one CPU, the steal that CPU suffered meanwhile is
recorded, and net_wall_s is the wall time without it.  lcmf runs with one
worker, so the pin costs it no parallelism.

Even with steal taken off, the same CPU runs the same code at two speeds on
such a host: about 1.5 times slower while another guest shares its physical
core, and that too comes and goes for minutes at a time.  So just before each
child starts, the parent (pinned to the same CPU) times a fixed pure-Python
loop, speed_probe().  The child's wall and CPU times are then scaled by
PROBE_REF_S / probe_s, which gives ref_wall_s and ref_cpu_s: seconds at the
speed the CPU had when the loop took PROBE_REF_S.  The probe shares no code
with lcmf, so a change to lcmf moves these times as it moves the raw ones.

Linux carries the parent's peak RSS over to a child across fork and exec, so
the process that starts the commands must stay small while it measures: it
keeps only their output, imports neither numpy nor lcmf, and checks the
output against the reference after the last command has ended.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

TIMEOUT_S = 20.0  # per command; a command over it is killed and counted as failed
OK_LINE = re.compile(r"^ok: \S+ passed on (\d+) cases$", re.MULTILINE)
CLK_TCK = os.sysconf("SC_CLK_TCK")
CPU = max(os.sched_getaffinity(0))  # the CPU every measured command runs on
PROBE_REF_S = 0.020  # speed_probe() time on a 2-vCPU Intel Xeon VM whose core was not shared
PROBE_LOOPS = 150_000


@dataclass
class Outcome:
    """What one command cost, what it printed, and (once checked) why it failed."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    reason: str | None = None  # set by check(); None means the output was right
    cases: int | None = None  # set by check() from a verify command's ok: line
    stolen_s: float = 0.0  # time the hypervisor took from the child's CPU meanwhile
    probe_s: float = PROBE_REF_S  # speed_probe() just before the child started

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def net_wall_s(self) -> float:
        """Wall time less stolen time, to the 1/CLK_TCK resolution of the steal count."""
        return self.wall_s - self.stolen_s

    @property
    def ref_wall_s(self) -> float:
        """net_wall_s at the CPU speed where speed_probe() takes PROBE_REF_S."""
        return self.net_wall_s * PROBE_REF_S / self.probe_s

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * PROBE_REF_S / self.probe_s


def speed_probe() -> float:
    """CPU seconds this process takes for a fixed pure-Python loop: how fast its CPU runs now."""
    t = time.process_time()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.process_time() - t


def stolen_seconds(cpu: int = CPU) -> float:
    """Time stolen from one of this guest's CPUs since boot, from /proc/stat; 0 where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / CLK_TCK
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def pin() -> None:
    """Keep this process on the one CPU named by CPU; the parent calls it once, each child as it starts."""
    os.sched_setaffinity(0, {CPU})


def child_env(root: str) -> dict[str, str]:
    # lcmf makes no BLAS calls, but numpy's OpenBLAS starts a thread per core at
    # import and those threads spin for a while.  On a two-core machine that made
    # each command's wall time depend on whether the other core happened to be free.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("LCMF_SIEVE_LIMIT", None)  # the default sieve bound is part of the cost
    return env


def run_command(cmd, root: str, deadline: float) -> Outcome:
    """Run `python -m lcmf.cli argv` in root and wait for it to end.

    A command still running after TIMEOUT_S, or at the run's deadline (a
    time.perf_counter() value), is killed and reported with exit code -9.
    """
    probe = speed_probe()
    timeout = min(TIMEOUT_S, max(0.01, deadline - time.perf_counter()))
    with tempfile.TemporaryFile(dir=root) as out:
        stolen = stolen_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lcmf.cli", *cmd.argv],
            stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
            env=child_env(root), cwd=root, preexec_fn=pin,
        )
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
        stolen = stolen_seconds() - stolen
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code  # reaped here, so Popen must not wait again
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return Outcome(
        label=cmd.label,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        code=code,
        stdout=text,
        stolen_s=stolen,
        probe_s=probe,
    )


def check(outcome: Outcome, checker) -> None:
    """Fill in outcome.reason from checker(exit code, stdout) and the case count; drop the output."""
    outcome.reason = checker(outcome.code, outcome.stdout)
    found = OK_LINE.search(outcome.stdout)
    outcome.cases = int(found.group(1)) if found else None
    outcome.stdout = ""
