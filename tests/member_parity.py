"""Run bounded ideal membership queries in two source trees and compare
what they print.

    python tests/member_parity.py OLD_SRC NEW_SRC [SEEDS]

The queries are those of the benchmark's `ideal-membership` workload
(`perfbench/workloads.py`) for the seeds 1 to SEEDS (default 20): the
commutativity ideals L(2,1) at bound 6 (a member and a non-member), L(3,1)
at bound 5 and L(2,2) at bound 6, and the matrix-point ideal at bound 3.
For each seed they are followed by a member and a non-member of L(2,1) at
bound 8 and of L(3,1) at bound 6, drawn the same way.  The targets are drawn
once, by the benchmark's library-free helpers, so both trees answer the same
queries.

Each tree runs in its own interpreter, with that tree first on `sys.path`,
in a fresh temporary directory.  There it runs `fan check --out` for each
one-cone fan and then every query as `subscheme member ... --json` in
process through `nctoric.cli.main`.  Every query's exit code is checked
against its known answer: 0 for a member, 1 (bound-relative) for a
non-member.  The script prints each tree's in-process time over the queries
of each ideal and bound, and compares every query's printed output and exit
code between the trees, byte for byte.  It exits 1 when a known answer
fails or an output differs.
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# the ideals queried beyond the benchmark's: (file, rank, level, bound)
LARGE = (("l21.json", 2, 1, 8), ("l31.json", 3, 1, 6))


class Recorder:
    """Stands in for the benchmark's runner: keeps each command's argv and
    expected exit code instead of running it."""

    def __init__(self):
        self.commands = []

    def cmd(self, argv, check=None, code=0):
        self.commands.append((argv, code))


def build_job(seeds):
    """(files, fan commands, queries): the files to write, the `fan check`
    argvs, and (group, argv, expected code) for every query."""
    sys.path.insert(0, PERFBENCH)
    import oracles as O
    import workloads

    files, fan_commands, queries = {}, [], []
    for seed in range(1, seeds + 1):
        # the seed draws only the targets; the files and fans are the same
        files, script = workloads.ideal_membership(seed, False)
        run = Recorder()
        script(run)
        fan_commands = [argv for argv, _ in run.commands if argv[0] == "fan"]
        queries += [(f"{argv[2]} at bound {argv[-1]}", argv, code)
                    for argv, code in run.commands if argv[0] == "subscheme"]
        rng = random.Random(seed)
        for name, rank, level, bound in LARGE:
            gens = O.l_commutative_generators(rank, level)
            member = workloads.ideal_member(rng, rank, gens, bound)
            outside = workloads.shadow_nonmember(rng, rank, bound)
            for target, code in ((member, 0), (outside, 1)):
                queries.append((f"{name} at bound {bound}",
                                ["subscheme", "member", name, "--cone", "",
                                 "--element", O.format_alg(target), "--bound", str(bound)],
                                code))
    return files, fan_commands, queries


def run_queries(job_path):
    """Write the job's files, run its fan commands and queries in the
    working directory, and print one JSON line with each query's exit code,
    output and time."""
    from nctoric.cli import main

    with open(job_path) as f:
        job = json.load(f)
    for name, obj in job["files"].items():
        with open(name, "w") as f:
            json.dump(obj, f)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue() + err.getvalue(), time.perf_counter() - start

    fans = [run(argv)[0] for argv in job["fans"]]
    results = [run(argv + ["--json"]) for _, argv, _ in job["queries"]]
    print(json.dumps({"fans": fans, "results": results}))


def run_tree(src, job_path):
    code = (f"import sys; sys.path[:0] = [{os.path.abspath(src)!r}, {HERE!r}]; "
            f"import member_parity; member_parity.run_queries({job_path!r})")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", code], cwd=work, check=True,
                              capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv):
    old_src, new_src = argv[:2]
    seeds = int(argv[2]) if len(argv) > 2 else 20
    files, fans, queries = build_job(seeds)
    failed = False
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        job_path = os.path.join(scratch, "job.json")
        with open(job_path, "w") as f:
            json.dump({"files": files, "fans": fans, "queries": queries}, f)
        for label, src in (("old", old_src), ("new", new_src)):
            runs[label] = result = run_tree(src, job_path)
            groups = {}
            for (group, _, _), (_, _, seconds) in zip(queries, result["results"]):
                groups[group] = groups.get(group, 0.0) + seconds
            total = sum(groups.values())
            print(f"{label}: {len(queries)} queries in {total:.2f} s")
            for group, seconds in groups.items():
                print(f"  {group}: {seconds:.3f} s")
            if any(result["fans"]):
                print(f"{label}: fan check exit codes {result['fans']}, expected all 0")
                failed = True
            for (group, argv, want), (code, _, _) in zip(queries, result["results"]):
                if code != want:
                    print(f"{label}: {group} exited {code}, expected {want}: {argv[6]}")
                    failed = True
    for (group, argv, _), old, new in zip(queries, runs["old"]["results"],
                                          runs["new"]["results"]):
        if old[:2] != new[:2]:
            print(f"{group} differs for {argv[6]}:\n  old {old[:2]}\n  new {new[:2]}")
            failed = True
    if not failed:
        print(f"{len(queries)} outputs identical over seeds 1 to {seeds}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
