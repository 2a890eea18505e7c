"""Benchmark of the abelian_codes CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One process runs the jobs of
a workload one after another, each as a fresh ``python -m abelian_codes``
process, because a CLI user pays cold caches on every call.  A pass is one
run of every job of the workload's list (see ``jobs.py``); passes repeat
while another one fits in S seconds, and there is always at least one.

Every job's exit status and stdout sha256 are checked against
``pins.json``; a job that differs counts as failed.

Times are in reference seconds (see ``RefClock``): each process's wall
time, scaled by the speed a probe measured on its CPU meanwhile.  The
summary lines also print the raw wall time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the run's passes):
  wall_s       time of one pass: the sum of its jobs' times
  setup_s      start a fresh interpreter, import abelian_codes, and build
               a job's field and group (median of SETUP_SAMPLES processes)
  peak_rss_mb  largest max-RSS among the pass's job processes
The share of failed jobs (failed_ratio) is ``failed / attempted`` in the
same object.

With ``--trace 1`` passes alternate between untraced and traced, and the
object holds the per-layer metrics of ``tracer.py`` (medians over traced
passes; counts must repeat exactly) and ``trace.overhead_s``, the traced
minus the untraced median pass time.  The spans of the last traced pass
are written to ``.perfbench-out/spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, BENCH)

import jobs as joblists  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES = 15
JOB_TIMEOUT_S = 150
# Burst time of probe.py that defines a reference second; about the
# burst time in the faster of the machine's two CPU states.
REF_BURST_S = 0.0005
# CPUs the jobs may run on, each with its own probe process.
MAX_CPUS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def load_pins():
    with open(os.path.join(BENCH, "pins.json")) as fh:
        return json.load(fh)


def spawn(cmd, env, timeout=JOB_TIMEOUT_S):
    """Run ``cmd`` to completion.  Returns (start, end, exit status, stdout
    bytes, max RSS in KiB, stderr bytes); status None on timeout."""
    err_path = os.path.join(OUT, "stderr.txt")
    with open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            code = os.waitstatus_to_exitcode(status)
        except JobTimeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            end, code, out = time.perf_counter(), None, b""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            proc.returncode = code if code is not None else -9
            proc.stdout.close()
    with open(err_path, "rb") as fh:
        err_bytes = fh.read()
    return start, end, code, out, usage.ru_maxrss, err_bytes


class RefClock:
    """Converts wall time on this machine's CPUs to reference seconds.

    Each CPU of this machine runs at one of two speeds, about 1.7x apart,
    and switches every few seconds, independently of the other CPU; the
    guest cannot see why (no steal time, fixed clock).  Averaged over 30 s
    the raw speed still varies by about 19% (IQR over median).  So a
    ``probe.py`` runs on every CPU for the whole run, and before each
    process ``pick`` pins the benchmark, hence the child, to the CPU that
    is faster at that moment.  ``seconds`` scales the wall time of an
    interval on a CPU by that CPU's mean probe burst time over the
    interval, to seconds at a burst time of REF_BURST_S.
    """

    def __init__(self, env):
        self._cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self._probes = {}
        self.samples = {}
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                self._probes[cpu] = subprocess.Popen(
                    [sys.executable, os.path.join(BENCH, "probe.py")],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                    cwd=ROOT)
        except BaseException:
            self.stop()
            raise

    def pick(self):
        """Pin to the CPU whose probe burst is fastest now; returns it."""
        best = None
        for cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
            took = []
            for _ in range(2):
                t = time.perf_counter()
                probe.burst()
                took.append(time.perf_counter() - t)
            if best is None or min(took) < best[0]:
                best = (min(took), cpu)
        os.sched_setaffinity(0, {best[1]})
        return best[1]

    def stop(self):
        """Stop the probes and keep their samples; restores affinity."""
        for cpu, proc in self._probes.items():
            proc.stdin.close()
            out = proc.stdout.read().decode()
            proc.wait()
            proc.stdout.close()
            self.samples[cpu] = [tuple(map(float, line.split()))
                                 for line in out.splitlines()]
        self._probes = {}
        os.sched_setaffinity(0, self._cpus)

    def seconds(self, cpu, start, end):
        samples = self.samples[cpu]
        bursts = [d for t, d in samples if start <= t <= end]
        if not bursts:
            bursts = [d for _, d in samples]
        return (end - start) * REF_BURST_S / statistics.fmean(bursts)


def run_job(job, pins, env, clock, traced=False):
    """One job; returns a record with its CPU, interval, max RSS, ok, and
    for a traced job its layer metrics and spans."""
    trace_path = os.path.join(OUT, "job-trace.json")
    if traced:
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "trace",
               trace_path, "--"] + job.argv
    else:
        cmd = [sys.executable, "-m", "abelian_codes"] + job.argv
    cpu = clock.pick()
    start, end, code, out, rss, err = spawn(cmd, env)
    pin = pins.get(job.pin_key)
    ok = (pin is not None and code == pin["exit"]
          and hashlib.sha256(out).hexdigest() == pin["sha256"])
    record = {"argv": job.argv, "pin": job.pin_key, "cpu": cpu,
              "start": start, "end": end, "rss_kib": rss}
    if traced and code is not None and os.path.exists(trace_path):
        with open(trace_path) as fh:
            record.update(json.load(fh))
        os.remove(trace_path)
    elif traced:
        ok = False
    if not ok:
        sys.stderr.write("job failed: %s (exit %s)\n%s\n" % (
            " ".join(job.argv), code, err.decode(errors="replace")[-2000:]))
    record["ok"] = ok
    return record


def run_pass(job_list, pins, env, clock, traced=False):
    """One pass over the jobs: the records of its jobs."""
    return [run_job(job, pins, env, clock, traced) for job in job_list]


def setup_samples(job_list, env, clock, samples):
    """Intervals of fresh interpreters that import the package and build a
    job's field and group, cycling over the jobs of the list.  Returns
    (records, all ok)."""
    records = []
    ok = True
    for i in range(samples + 1):  # the first one warms the file cache
        job = job_list[i % len(job_list)]
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "setup",
               job.field] + ([job.group] if job.group else [])
        cpu = clock.pick()
        start, end, code, _, _, err = spawn(cmd, env)
        if code != 0:
            sys.stderr.write("setup failed: %s\n%s\n" % (
                " ".join(cmd[2:]), err.decode(errors="replace")[-2000:]))
            ok = False
        if i:
            records.append({"cpu": cpu, "start": start, "end": end})
    return records, ok


def measure(job_list, pins, seconds, trace, n_setup=SETUP_SAMPLES):
    """Run passes for about ``seconds``; returns the result object and a
    summary of the run."""
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    clock = RefClock(env)
    try:
        setup, setup_ok = setup_samples(job_list, env, clock, n_setup)
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(job_list, pins, env, clock))
            if trace:
                traced.append(run_pass(job_list, pins, env, clock, True))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
    finally:
        clock.stop()
    for rec in setup + [r for p in plain + traced for r in p]:
        rec["raw_s"] = rec["end"] - rec["start"]
        rec["ref_s"] = clock.seconds(rec["cpu"], rec["start"], rec["end"])
    records = [r for p in plain + traced for r in p]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    wall = statistics.median(sum(r["ref_s"] for r in p) for p in plain)
    summary = {
        "passes": len(plain),
        "setup_samples": n_setup,
        "failed_ratio": failed / attempted,
        "raw_wall_s": statistics.median(sum(r["raw_s"] for r in p)
                                        for p in plain),
        "raw_setup_s": statistics.median(r["raw_s"] for r in setup),
    }
    correct = failed == 0 and setup_ok
    if not trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["ref_s"] for r in setup),
            "peak_rss_mb": statistics.median(
                max(r["rss_kib"] for r in p) / 1024.0 for p in plain),
        }
        units = END_TO_END_UNITS
    else:
        metrics, units, repeat = layer_summary(traced, wall)
        correct = correct and repeat
        with open(os.path.join(OUT, "spans.json"), "w") as fh:
            json.dump(traced[-1], fh)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, summary


def layer_summary(traced, plain_wall):
    """Per-layer metrics over the traced passes: median times in reference
    seconds, exact counts (which must agree between passes), and the
    tracing overhead."""
    times = {name for name, _, _ in tracer.TIME_METRICS}
    totals = []
    for p in traced:
        total = {}
        for r in p:
            scale = r["ref_s"] / r["raw_s"]
            job = {k: v * scale if k in times else v
                   for k, v in r["metrics"].items()}
            tracer.add_metrics(total, job)
        totals.append(total)
    first = totals[0]
    repeat = all(t[k] == first[k] for t in totals for k in tracer.COUNT_METRICS)
    metrics, units = {}, {}
    for name, _, _ in tracer.TIME_METRICS:
        metrics[name] = statistics.median(t[name] for t in totals)
        units[name] = "s"
    for name in tracer.COUNT_METRICS:
        metrics[name] = first[name]
        units[name] = "count"
    for name in tracer.RATIO_METRICS:
        metrics[name] = first[name]
        units[name] = "ratio"
    metrics["trace.overhead_s"] = statistics.median(
        sum(r["ref_s"] for r in p) for p in traced) - plain_wall
    units["trace.overhead_s"] = "s"
    return metrics, units, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(joblists.WORKLOADS))
    parser.add_argument("--seed", type=int, default=joblists.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "abelian_codes", "__init__.py")):
        sys.stderr.write("abelian_codes sources not found under %s\n" % SRC)
        return 2
    job_list = joblists.job_list(args.workload, args.seed)
    result, summary = measure(job_list, load_pins(), args.seconds, args.trace)
    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                        "; ".join(" ".join(j.argv)
                                                  for j in job_list)))
    print("passes %d, setup samples %d, failed_ratio %.4f ratio (%d/%d)" % (
        summary["passes"], summary["setup_samples"], summary["failed_ratio"],
        result["failed"], result["attempted"]))
    print("raw wall %.4f s, raw setup %.4f s" % (
        summary["raw_wall_s"], summary["raw_setup_s"]))
    for name, m in result["metrics"].items():
        print("%-36s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
