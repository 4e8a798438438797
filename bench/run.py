"""collabpred benchmark: end-to-end timings of `collab` command sequences.

Usage, from the repository root:

    python3 bench/run.py --workload online-conv --seed 7 --seconds 30 --trace 0

Closed loop, one client: the commands of a workload run back to back, one
child process at a time, with inputs built from --seed. With --trace 0 the
sequence repeats until --seconds is used up (at least twice) and the
end-to-end metrics are medians over repetitions. With --trace 1 one traced
in-process run (bench/tracing.py) gives the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A result file with the environment
record is written to bench/results/. Exit code 0 on a completed run, 1 if
the inputs could not be built or the traced run crashed, 2 if the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_REPS = 2        # identical-bytes check needs two repetitions
SETUP_PROBES = 5    # at least this many fresh processes per run for setup_s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Invocation:
    code: int
    wall: float
    cpu: float
    rss_mib: float


@dataclass
class Tally:
    """Invocations attempted and failed; a failure names its reason."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: List[str], cwd: Path, env: Dict[str, str], stdout: Optional[Path] = None,
          stderr: Optional[Path] = None) -> Invocation:
    """Run one child to completion; its own CPU time and peak RSS via wait4."""
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(stderr, "wb") if stderr else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


def collab(cmd: W.Command, cwd: Path, env: Dict[str, str], index: int) -> Invocation:
    return spawn([sys.executable, "-m", "collabpred.cli", *cmd.argv], cwd, env,
                 stdout=cwd / cmd.stdout if cmd.stdout else None,
                 stderr=cwd / f"cmd{index}.stderr")


def subprocess_gen(wd: Path, env: Dict[str, str]) -> W.Gen:
    def gen(argv: List[str]) -> None:
        inv = spawn([sys.executable, "-m", "collabpred.cli", *argv], wd, env,
                    stderr=wd / "gen.stderr")
        if inv.code != 0:
            raise RuntimeError(f"collab {' '.join(argv)} exited {inv.code}: "
                               + (wd / "gen.stderr").read_text()[-500:])
    return gen


def run_check_commands(wl: W.Workload, ref: Path, env: Dict[str, str]) -> List[int]:
    """Untimed commands whose outputs only the checks read; run once, in rep0."""
    return [collab(c, ref, env, len(wl.commands) + i).code
            for i, c in enumerate(wl.check_commands)]


def check_outputs(wl: W.Workload, wd: Path, rep_dirs: List[Path], seed: int,
                  codes: List[List[int]], tally: Tally) -> None:
    """Count every invocation of every repetition, failed or not.

    rep_dirs[0] gets the full checks, and codes[0] includes the check
    commands; every other repetition must reproduce rep0's outputs byte for
    byte.
    """
    ref = rep_dirs[0]
    commands = wl.commands + wl.check_commands
    try:
        failed = W.group_failures(wl.check(ref, wd, seed))
    except (OSError, KeyError, TypeError, ValueError, IndexError) as e:
        failed = {f: [f"check raised {type(e).__name__}: {e}"] for f in wl.outputs}
    for f in set(failed) - set(wl.outputs):
        tally.add(False, f"{f}: {'; '.join(failed[f])}")
    digests = {f: W.sha256_file(ref / f) for c in commands for f in c.outputs
               if (ref / f).is_file()}
    for r, rd in enumerate(rep_dirs):
        for cmd, code in zip(commands if r == 0 else wl.commands, codes[r]):
            reasons = [f"rep{r} collab {cmd.argv[0]} exited {code}"] if code else []
            for f in cmd.outputs:
                reasons += [f"rep{r} {f}: {m}" for m in failed.get(f, [])]
                if r and (not (rd / f).is_file() or W.sha256_file(rd / f) != digests.get(f)):
                    reasons.append(f"rep{r} {f}: bytes differ from rep0")
            tally.add(not reasons, "; ".join(reasons))


def measure(wl: W.Workload, wd: Path, seed: int, seconds: float, env: Dict[str, str],
            tally: Tally) -> Dict[str, float]:
    setup: List[float] = []

    def probe() -> None:
        inv = spawn([sys.executable, "-c", wl.setup_probe, str(seed)], wd, env)
        tally.add(inv.code == 0, f"setup probe exited {inv.code}")
        setup.append(inv.wall)

    reps: List[List[Invocation]] = []
    rep_dirs: List[Path] = []
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        # host speed drifts within seconds, so set-up is sampled between
        # repetitions rather than all at once
        probe()
        rd = wd / f"rep{len(reps)}"
        rd.mkdir()
        t0 = time.perf_counter()
        reps.append([collab(c, rd, env, i) for i, c in enumerate(wl.commands)])
        walls.append(time.perf_counter() - t0)
        rep_dirs.append(rd)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        probe()
    codes = [[i.code for i in rep] for rep in reps]
    codes[0] += run_check_commands(wl, rep_dirs[0], env)
    check_outputs(wl, wd, rep_dirs, seed, codes, tally)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(i.cpu for i in rep) for rep in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(max(i.rss_mib for i in rep) for rep in reps),
        "reps": len(reps),
        "wall_samples": walls,
        "setup_samples": setup,
    }


def traced(wl: W.Workload, wd: Path, seed: int, env: Dict[str, str], tally: Tally) -> Dict:
    """Untraced and traced in-process runs in one child; see tracing.py."""
    out = wd / "layers.json"
    spans = RESULTS / f"spans_{wl.name}_seed{seed}.json"
    inv = spawn([sys.executable, str(HERE / "tracing.py"), "--workload", wl.name,
                 "--seed", str(seed), "--workdir", str(wd), "--out", str(out),
                 "--spans", str(spans)], wd, env, stderr=wd / "tracing.stderr")
    if inv.code != 0 or not out.is_file():
        sys.stderr.write((wd / "tracing.stderr").read_text()[-2000:])
        raise RuntimeError(f"traced run exited {inv.code}")
    result = json.loads(out.read_text())
    # rep0 is the traced run, rep1 the untraced one; both must agree
    codes = result["codes"]
    codes[0] += run_check_commands(wl, wd / "rep0", env)
    check_outputs(wl, wd, [wd / "rep0", wd / "rep1"], seed, codes, tally)
    for ok, problem in result["counter_checks"]:
        tally.add(ok, f"counter check: {problem}")
    return result


def blas_info() -> Dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        return {}


def loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the program's sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "collabpred").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> Dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, help="input seed (default: the workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so a running child is killed and reaped
    args = parse_args(argv)
    if not (SRC / "collabpred" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    seed = wl.ref_seed if args.seed is None else args.seed
    env = child_env()
    record = {"workload": wl.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    RESULTS.mkdir(exist_ok=True)
    wd = HERE / "work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            layers = traced(wl, wd, seed, env, tally)
            metrics = layers["metrics"]
            record["layers"] = layers
        else:
            wl.build(seed, wd, subprocess_gen(wd, env))
            measured = measure(wl, wd, seed, args.seconds, env, tally)
            metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            record["samples"] = measured
    except (OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    failed = len(tally.failures)
    record["environment"]["loadavg_end"] = loadavg()
    record.update(attempted=tally.attempted, failures=tally.failures,
                  failed_frac=failed / tally.attempted, metrics=metrics)
    result_file = RESULTS / f"BENCH_{wl.name}_seed{seed}_trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for reason in tally.failures:
        print(f"FAIL {reason}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed}/{tally.attempted} = {failed / tally.attempted:.6g}")
    print(f"result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
