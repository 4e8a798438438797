"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--workload NAME ...]

For each workload, at its pinned seed: build the inputs, run the command
sequence twice, and require every check to pass. Then, for each checked
artifact in turn, change one digit and run the checks again:

- in rep0 only, the copy the checks read, as a one-off fault would; the
  checks must fail, so that failed_frac becomes non-zero;
- in every repetition alike, as a deterministic bug would; this only
  reports which checks besides the identical-bytes check catch it.

Also checks that BENCHMARK.json names exactly the metrics the benchmark
reports. Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from pathlib import Path
from typing import List

import run
import workloads as W

sys.path.insert(0, str(run.SRC))  # tracing imports the program to time that import
import tracing  # noqa: E402

IDENTITY = "bytes differ from rep0"


def corrupt(path: Path) -> None:
    """Add one (mod 10) to the leading non-zero digit of the file's middle decimal number.

    A change in the last digit of a 17-digit float can parse to the same
    value, so a low digit would test nothing but the file's bytes.
    """
    data = bytearray(path.read_bytes())
    numbers = list(re.finditer(rb"\d+\.\d+", data))
    number = numbers[len(numbers) // 2]
    i = number.start() + re.search(rb"[1-9]", number.group()).start()
    data[i] = 48 + (data[i] - 48 + 1) % 10
    path.write_bytes(bytes(data))


def check_run(wl: W.Workload, wd: Path, reps: List[Path], codes) -> run.Tally:
    tally = run.Tally()
    run.check_outputs(wl, wd, reps, wl.ref_seed, codes, tally)
    return tally


def selftest_workload(wl: W.Workload, env) -> List[str]:
    problems = []
    wd = run.HERE / "work" / f"selftest-{wl.name}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        wl.build(wl.ref_seed, wd, run.subprocess_gen(wd, env))
        reps = [wd / "rep0", wd / "rep1"]
        codes = []
        for rd in reps:
            rd.mkdir()
            codes.append([run.collab(c, rd, env, i).code for i, c in enumerate(wl.commands)])
        codes[0] += run.run_check_commands(wl, reps[0], env)
        clean = check_run(wl, wd, reps, codes)
        print(f"{wl.name}: clean run failed_frac {len(clean.failures)}/{clean.attempted}")
        if clean.failures:
            problems += [f"{wl.name}: clean run failed: {f}" for f in clean.failures]
        checked_by_commands = {f for c in wl.check_commands for f in c.outputs}
        for artifact in wl.outputs:
            in_reps = [rd for rd in reps if (rd / artifact).is_file()]
            originals = {rd: (rd / artifact).read_bytes() for rd in in_reps}
            for label, targets in (("rep0", in_reps[:1]), ("all reps", in_reps)):
                for rd in targets:
                    corrupt(rd / artifact)
                if artifact not in checked_by_commands:
                    run.run_check_commands(wl, reps[0], env)  # they read the corrupted file
                t = check_run(wl, wd, reps, codes)
                caught = sorted({f.split(": ", 1)[1] for f in t.failures if IDENTITY not in f})
                print(f"  {artifact:20s} in {label:8s}: failed_frac {len(t.failures)}/{t.attempted}; "
                      f"{'caught by: ' + caught[0][:100] if caught else 'identical-bytes check only'}")
                if label == "rep0" and not t.failures:
                    problems.append(f"{wl.name}: corrupting {artifact} went unnoticed")
                for rd, data in originals.items():
                    (rd / artifact).write_bytes(data)
            if artifact not in checked_by_commands:
                run.run_check_commands(wl, reps[0], env)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    return problems


def check_benchmark_json() -> List[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", tracing.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics reported")
    if {w["name"] for w in spec["workloads"]} != set(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="*", choices=sorted(W.WORKLOADS), default=sorted(W.WORKLOADS))
    args = p.parse_args(argv)
    env = run.child_env()
    problems = check_benchmark_json()
    for name in args.workload:
        problems += selftest_workload(W.WORKLOADS[name], env)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
