"""Compare `azumaya.a1_probe` between two source trees on seeded random
matrices: integer, Gaussian-rational and sparse, of sizes 1 to 4.

    python tests/a1_probe_parity.py OLD_SRC NEW_SRC [COUNT [SEED]]

Each tree runs in its own interpreter with that tree first on `sys.path`
and prints one line per matrix: the matrix, its minimal polynomial, its
(root, fiber dimension) pairs and its rootless factor. The script reports
the number of matrices compared and exits 1 at the first line that differs.
COUNT defaults to 400 and SEED to 0.
"""
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def random_matrices(count, seed):
    """count seeded square matrices as rows of (re, im) Fraction pairs."""
    rng = random.Random(seed)
    kinds = {
        "integer": lambda: (Fraction(rng.randint(-6, 6)), Fraction(0)),
        "gaussian": lambda: (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                             Fraction(rng.randint(-1, 1), rng.randint(1, 2))),
        "sparse": lambda: ((Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-2, 2)))
                           if rng.random() < 0.3 else (Fraction(0), Fraction(0))),
    }
    names = sorted(kinds)
    out = []
    for k in range(count):
        entry = kinds[names[k % len(names)]]
        r = rng.randint(1, 4)
        out.append([[entry() for _ in range(r)] for _ in range(r)])
    return out


def probe_lines(count, seed):
    from nctoric.azumaya import a1_probe
    from nctoric.exactmath import GaussRational, format_gauss

    def text(values):
        return " ".join(format_gauss(v) for v in values)

    for rows in random_matrices(count, seed):
        matrix = [[GaussRational(re, im) for re, im in row] for row in rows]
        result = a1_probe(matrix)
        fibers = ", ".join(f"{format_gauss(root)}:{dim}" for root, dim in result.fibers)
        print(f"{[text(row) for row in matrix]} | {text(result.minpoly)} | {fibers} | "
              f"{text(result.unresolved_factor)}")


def run_tree(src, count, seed):
    code = (f"import sys; sys.path[:0] = [{os.path.abspath(src)!r}, {HERE!r}]; "
            f"import a1_probe_parity; a1_probe_parity.probe_lines({count}, {seed})")
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True).stdout.splitlines()


def main(argv):
    old_src, new_src = argv[:2]
    count = int(argv[2]) if len(argv) > 2 else 400
    seed = int(argv[3]) if len(argv) > 3 else 0
    old, new = run_tree(old_src, count, seed), run_tree(new_src, count, seed)
    for k, (a, b) in enumerate(zip(old, new)):
        if a != b:
            print(f"matrix {k} differs:\n  old {a}\n  new {b}")
            return 1
    if len(old) != count or len(new) != count:
        print(f"expected {count} lines, got {len(old)} and {len(new)}")
        return 1
    print(f"{count} matrices: identical a1_probe output")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
