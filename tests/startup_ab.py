"""Compare the start-up cost of `nctoric fan check` between two source trees.

    python tests/startup_ab.py OLD_SRC NEW_SRC [COUNT]

Runs COUNT (default 40) `python -m nctoric.cli fan check` processes per
tree on a one-cone fan, alternating between the trees, all pinned to one
CPU. Each process runs with its tree as the working directory, so `-m`
imports that tree's package; the environment is passed on unchanged. With
PYTHONDONTWRITEBYTECODE=1 and no `__pycache__` in either tree, every
process compiles each module it imports, as a benchmark child does. The
script prints, per tree, the median and quartiles of the wall time and of
the child's CPU time (user plus system, from `os.wait4`), then the
difference of the medians, and for the pairs of adjacent runs how often the
new tree was faster and the median of their differences. It exits 1 when a
process fails or the trees' outputs differ.
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

FAN = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}


def run_once(src, fan_path):
    """(wall seconds, child CPU seconds, exit code, stdout) of one process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nctoric.cli", "fan", "check", fan_path],
                            cwd=src, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    return wall, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status), out


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {1000 * median:6.1f} ms  quartiles [{1000 * q1:6.1f}, {1000 * q3:6.1f}]"


def main(argv):
    old_src, new_src = (os.path.abspath(a) for a in argv[:2])
    count = int(argv[2]) if len(argv) > 2 else 40
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runs = {old_src: [], new_src: []}
    with tempfile.TemporaryDirectory() as tmp:
        fan_path = os.path.join(tmp, "cone.fan")
        with open(fan_path, "w") as fh:
            json.dump(FAN, fh)
        for _ in range(count):
            for src in (old_src, new_src):
                runs[src].append(run_once(src, fan_path))
    failed = False
    medians = []
    for label, src in (("old", old_src), ("new", new_src)):
        walls, cpus, codes, outs = zip(*runs[src])
        print(f"{label} {src}")
        print(f"  wall {summary(walls)}")
        print(f"  cpu  {summary(cpus)}")
        medians.append((statistics.median(walls), statistics.median(cpus)))
        if set(codes) != {0} or len(set(outs)) != 1:
            print(f"  exit codes {sorted(set(codes))}, {len(set(outs))} distinct outputs")
            failed = True
    (old_wall, old_cpu), (new_wall, new_cpu) = medians
    print(f"new - old: wall {1000 * (new_wall - old_wall):+.1f} ms, "
          f"cpu {1000 * (new_cpu - old_cpu):+.1f} ms")
    # the host's speed drifts, so the runs next to each other compare best
    for k, name in ((0, "wall"), (1, "cpu")):
        diffs = [b[k] - a[k] for a, b in zip(runs[old_src], runs[new_src])]
        print(f"paired {name}: new faster in {sum(d < 0 for d in diffs)} of {count}, "
              f"median difference {1000 * statistics.median(diffs):+.1f} ms")
    if runs[old_src][0][3] != runs[new_src][0][3]:
        print("the trees' outputs differ")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
