"""Run the section chain of the divisor d·D_n on P^n in two source trees and
compare what they write.

    python tests/chain_parity.py OLD_SRC NEW_SRC DEGREE N [COUNT]

Each tree runs in its own interpreter, with that tree first on `sys.path`,
in a fresh temporary directory.  There the chain runs in process through
`nctoric.cli.main`: `sheaf from-divisor` on P^N (maximal cones in
lexicographic order) with the divisor DEGREE·D_N, `section extend` on every
point of `section list`, in that order, and `section check` of the last
section.  With COUNT, only the first COUNT points are extended and the check
reads s_COUNT.  Its known answers are checked in each tree: `section list`
gives C(DEGREE + N, N) points and every command exits 0.  The script prints
each tree's time per extend, for the check, and for one in-process
`serialize.load_sheaf` of the last section, which is what replaying that
file's recipe costs every command that reads it; and the digest of every
written file and of the commands' output.  It exits 1 when a known answer
fails or a digest differs between the trees.
"""
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_chain(degree, n, count=None):
    """Run the chain, up to `count` extends, in the working directory; print
    one JSON line with its exit codes, point count, times and digests."""
    from nctoric import serialize
    from nctoric.cli import main

    output = hashlib.sha256()

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        seconds = time.perf_counter() - start
        output.update(f"{argv} {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        return code, out.getvalue(), seconds

    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    with open("pn.fan", "w") as f:
        json.dump({"rank": n, "rays": rays,
                   "max_cones": [list(c) for c in itertools.combinations(range(n + 1), n)]}, f)
    with open("d.div", "w") as f:
        json.dump({"coefficients": {str(n): degree}}, f)
    codes = [run("sheaf", "from-divisor", "pn.fan", "--divisor", "d.div", "--out", "s0.json")[0]]
    code, out, _ = run("section", "list", "pn.fan", "--divisor", "d.div", "--json")
    codes.append(code)
    points = json.loads(out)["points"]
    extends = []
    for k, point in enumerate(points[:count], 1):
        code, _, seconds = run("section", "extend", f"s{k - 1}.json", "--divisor", "d.div",
                               f"--point={','.join(map(str, point))}", "--out", f"s{k}.json")
        codes.append(code)
        extends.append(seconds)
    code, _, check = run("section", "check", f"s{len(extends)}.json")
    codes.append(code)
    start = time.perf_counter()
    serialize.load_sheaf(f"s{len(extends)}.json")
    load = time.perf_counter() - start
    digests = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    digests["(output)"] = output.hexdigest()
    print(json.dumps({"codes": codes, "points": len(points), "extends": extends,
                      "check": check, "load": load, "digests": digests}))


def run_tree(src, degree, n, count):
    code = (f"import sys; sys.path[:0] = [{os.path.abspath(src)!r}, {HERE!r}]; "
            f"import chain_parity; chain_parity.run_chain({degree}, {n}, {count})")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", code], cwd=work, check=True,
                              capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv):
    old_src, new_src = argv[:2]
    degree, n = int(argv[2]), int(argv[3])
    count = int(argv[4]) if len(argv) > 4 else None
    expected = math.comb(degree + n, n)
    failed = False
    runs = {}
    for label, src in (("old", old_src), ("new", new_src)):
        runs[label] = result = run_tree(src, degree, n, count)
        times = " ".join(f"{t:.2f}" for t in result["extends"])
        print(f"{label}: {len(result['extends'])} extends in {sum(result['extends']):.2f} s, "
              f"check {result['check']:.2f} s, load {result['load']:.3f} s\n"
              f"  per extend: {times}")
        if result["points"] != expected:
            print(f"{label}: {result['points']} points, expected C({degree + n}, {n}) = {expected}")
            failed = True
        if any(result["codes"]):
            print(f"{label}: exit codes {result['codes']}, expected all 0")
            failed = True
    old, new = runs["old"]["digests"], runs["new"]["digests"]
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"{name} differs: old {old.get(name)} new {new.get(name)}")
            failed = True
    if not failed:
        print(f"O({degree}) on P^{n}: {len(new)} digests identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
