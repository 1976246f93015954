"""Closed-loop runner and child-process helper shared by all workloads."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from collections import defaultdict


def closed_loop(ops: list, seconds: float, call, traced_run: bool, calibrate=None) -> dict:
    """Run ops one at a time, in passes, until ``seconds`` have elapsed.

    ``call(op, k, traced)`` performs one operation on input number k and
    returns a dict with ``dt`` (seconds), ``ratio`` (worst residual over
    its gate; 1 or less passes), ``error`` (None or a message), and when
    traced ``spans`` ({name: [self seconds, calls]}), ``uncovered`` and
    ``counters``; ``rss_kb`` when the call ran in a child process.

    The first pass always completes. Untraced, later passes run every call
    that still fits before the deadline. Traced, every call runs twice
    (untraced, then traced, on the same input) and only whole passes are
    made, so that per-layer totals divide evenly into one pass. A failed
    call is counted and keeps its time in the samples.

    With ``calibrate`` (runs the fixed calibration work of calibrate.py and
    returns its seconds), every untraced call of an op that feeds a metric
    (one with a size class or in the fit) has a calibration just before
    and just after it, shared with its neighbours, and its time divided by
    the mean of the two goes into ``rel``. The host's speed drifts, and
    the two move together, so the quotient is steadier than either.
    """
    deadline = time.perf_counter() + seconds
    out = {"samples": defaultdict(list), "rel": defaultdict(list),
           "attempted": 0, "failed": 0, "errors": [], "worst_ratio": 0.0, "passes": 0, "rss_kb": [],
           "traced_wall": 0.0, "untraced_wall": 0.0, "uncovered": 0.0,
           "spans": defaultdict(lambda: [0.0, 0]),
           "by_class": defaultdict(lambda: defaultdict(float)),
           "counters": defaultdict(float)}
    est = {}
    pass_time = 0.0
    cal = None  # the latest calibration time, taken after the previous call
    while True:
        started = time.perf_counter()
        if out["passes"] and traced_run and started + pass_time > deadline:
            break
        ran = 0
        for op in ops:
            if (out["passes"] and not traced_run
                    and time.perf_counter() + est.get(op["id"], 0.0) > deadline):
                continue
            for traced in ((False, True) if traced_run else (False,)):
                calibrated = (calibrate is not None and not traced
                              and (op["cls"] is not None or op["fit"]))
                if calibrated and cal is None:
                    cal = calibrate()
                r = call(op, out["passes"], traced)
                out["attempted"] += 1
                if r["error"] is None and r["ratio"] <= 1.0:
                    out["worst_ratio"] = max(out["worst_ratio"], r["ratio"])
                else:
                    out["failed"] += 1
                    out["errors"].append(
                        f"{op['id']}: {r['error'] or 'residual/gate %.3e' % r['ratio']}")
                if r.get("rss_kb"):
                    out["rss_kb"].append(r["rss_kb"])
                if not traced:
                    out["samples"][op["id"]].append(r["dt"])
                    est[op["id"]] = r["dt"]
                    out["untraced_wall"] += r["dt"]
                    if calibrated:
                        after = calibrate()
                        out["rel"][op["id"]].append(r["dt"] / ((cal + after) / 2))
                        est[op["id"]] += after
                        cal = after
                    continue
                out["traced_wall"] += r["dt"]
                out["uncovered"] += r["uncovered"]
                for name, (own, calls) in r["spans"].items():
                    out["spans"][name][0] += own
                    out["spans"][name][1] += calls
                    if op["cls"]:
                        out["by_class"][op["cls"]][name] += own
                for name, value in r["counters"].items():
                    out["counters"][name] += value
            ran += 1
        if not ran:
            break
        out["passes"] += 1
        pass_time = time.perf_counter() - started
        if time.perf_counter() >= deadline:
            break
    out["errors"] = out["errors"][:5]
    return out


def run_child(argv, env, cwd, timeout: float, stdout=None, stderr=None, reader=None):
    """Start one child, optionally hand it to ``reader`` while it runs,
    and reap it. Returns (wall seconds, exit code, peak RSS in KB, reader
    result). The peak RSS is this child's own (``wait4``), not the
    running maximum over all children that RUSAGE_CHILDREN keeps. A
    child still running after ``timeout`` seconds is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
    done = threading.Event()

    def watchdog():
        # Exit is awaited without reaping (WNOWAIT), so the pid cannot be
        # reused by the time this kill runs.
        if not done.wait(timeout):
            os.kill(proc.pid, signal.SIGKILL)

    guard = threading.Thread(target=watchdog, daemon=True)
    guard.start()
    try:
        got = reader(proc, t0) if reader is not None else None
    finally:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        done.set()
        guard.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.stdout is not None:
            proc.stdout.close()
    return wall, proc.returncode, usage.ru_maxrss, got
