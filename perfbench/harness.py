"""Shared plumbing: the run context, servers in their own processes,
child runs, and the statistics every workload reports."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds a server gets to start, and to stop before it is killed.
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0

#: Seconds a child process may run beyond its measuring window.
CHILD_SLACK_S = 120.0


@dataclass
class Context:
    """What a workload needs to know about its run."""

    root: str       # checkout root; holds src/
    workdir: str    # scratch space inside the checkout
    seed: int
    seconds: float
    trace: bool

    def child_env(self) -> Dict[str, str]:
        """Environment for every process the benchmark starts: the
        checkout's sources first, temp files kept in the workdir."""
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src"), HERE]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = os.path.join(self.workdir, "tmp")
        env["PYTHONUNBUFFERED"] = "1"
        return env


# ----------------------------------------------------------------------
# Servers in their own processes
# ----------------------------------------------------------------------

class Server:
    """A ``repro`` server process, its bound port read from stdout."""

    def __init__(self, ctx: Context, args: Sequence[str], banner: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=ctx.child_env(), cwd=ctx.workdir, text=True)
        self.port = self._read_port(banner)

    def _read_port(self, banner: str) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(banner):
                address = line[len(banner):].split()[0]
                return int(address.rpartition(":")[2])
        self.stop()
        raise RuntimeError(f"server did not print {banner!r}")

    def reset_peak_rss(self) -> None:
        """Restart the high-water mark from the current RSS, so set-up
        allocations do not count (kept when the kernel refuses)."""
        path = f"/proc/{self.proc.pid}/clear_refs"
        with contextlib.suppress(OSError), open(path, "w") as handle:
            handle.write("5")

    def peak_rss_bytes(self) -> int:
        """The server process's resident-set high-water mark."""
        return status_bytes(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if the server outlives the timeout.
        (SIGINT would do for a foreground run, but a shell ignores it
        in background jobs, and the servers inherit that.)"""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_daemon(ctx: Context) -> Server:
    """``repro serve start`` with its default store and batch window."""
    return Server(ctx, ["serve", "start", "--port", "0"],
                  "backbone daemon listening on ")


def start_kv(ctx: Context) -> Server:
    """``repro net serve``: the shared socket KV server."""
    return Server(ctx, ["net", "serve", "--port", "0"],
                  "repro-net listening on ")


def run_child(ctx: Context, request: Dict[str, object],
              timeout: float) -> Dict[str, object]:
    """Run ``child.py`` on one JSON request; return its JSON reply."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"),
         json.dumps(request)],
        capture_output=True, text=True, env=ctx.child_env(),
        cwd=ctx.workdir, timeout=timeout, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"child failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def status_bytes(pid, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` in bytes."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(field)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or ``None`` when fewer than ten
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return float(ordered[rank - 1])


def busy_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals: the time in
    which at least one request was in flight."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def machine() -> Dict[str, object]:
    """The machine stamp every result carries."""
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}
