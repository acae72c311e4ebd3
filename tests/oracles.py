"""Independent oracles used by the tests.

Everything here is deliberately written against the problem statement, not
against the library internals: a different decision procedure for submonoid
membership, the round-based saturation the library's worklist replaced, the
insertion-order echelon its pivot-indexed one replaced, the two lower-chart
constructions its one lower-chart rule replaced, the round-based span
closure of the surrogate, a relation check that multiplies out every
sequence of chart generators, the twisted-section unit search over every
pair of monomials, the per-block matrix-model sampler, a classifier
of idempotent families read off the definitions, free-algebra arithmetic
on letter tuples, the generators of the nested commutativity ideal,
bounded ideal membership on one echelon of every product x*g*y, where
the library adds only the block of products joined to the target,
the completion of maximal charts (Prop 2.2.9), which no command runs and
which grows its lower charts by the library's one rule, augmentation by
regrowing every chart instead of appending to it, the commutative-monoid
search as a lexicographic scan with a minor-gcd lattice test, exhaustive
enumerations, brute-force lattice and divisor scans, and small
helpers that only the tests need.
"""
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import gcd, isqrt

from nctoric.deltasystem import (ChartSystem, _in_dual, _system_from_seeds,
                                 admissible_cone_findings)
from nctoric.errors import MorphismInvalid
from nctoric.exactmath import ONE, ZERO, Echelon, GaussRational
from nctoric.freeword import (ReducedWord, Submonoid, abelianize, format_word, identity_word,
                              is_unit_in, word_inv, word_mul, words_up_to)
from nctoric.ncalgebra import (AlgElem, BoundedIdeal, MemberCertificate, _ideal_columns,
                               _word_vector)
from nctoric.qimatrix import (qim_add, qim_flatten, qim_identity, qim_is_zero, qim_mul,
                              qim_scale, qim_zero, solve_corner_inverse, sparse_vector)


def plain_flower(generators):
    """The flower automaton of (g1|...|gk)*, one petal per nonempty
    generator and one state per inner letter position of each: letter
    transitions {(p, letter): set of targets} and the number of states.
    State 0 is both initial and accepting."""
    trans = defaultdict(set)
    next_state = 1
    for g in generators:
        letters = g.letters
        if not letters:
            continue
        prev = 0
        for i, letter in enumerate(letters):
            if i == len(letters) - 1:
                nxt = 0
            else:
                nxt = next_state
                next_state += 1
            trans[(prev, letter)].add(nxt)
            prev = nxt
    return dict(trans), next_state


def dyck_membership(generators, rank):
    """Decision procedure for f.g. submonoids of the free group built on
    cancellation reachability (CFL closure) over the plain flower automaton;
    an independent algorithm from the library's saturation."""
    trans, n = plain_flower(generators)
    reach = {(p, p) for p in range(n)}
    changed = True
    while changed:
        changed = False
        new = set()
        for (p, x), rs in trans.items():
            for r in rs:
                for (r2, s) in reach:
                    if r2 != r:
                        continue
                    for q in trans.get((s, -x), ()):
                        if (p, q) not in reach:
                            new.add((p, q))
        for (a, b) in reach:
            for (b2, c) in reach:
                if b2 == b and (a, c) not in reach:
                    new.add((a, c))
        if new:
            reach |= new
            changed = True
    reach_map = defaultdict(set)
    for (a, b) in reach:
        reach_map[a].add(b)

    def accepts(word):
        cur = set(reach_map[0])
        for l in word.letters:
            stage = set()
            for s in cur:
                for t in trans.get((s, l), ()):
                    stage |= reach_map[t]
            if not stage:
                return False
            cur = stage
        return 0 in cur

    return accepts


def saturate_by_rounds(trans, nstates):
    """The silent-move closure of every state of an automaton with letter
    transitions {(p, letter): targets} and states 0..nstates-1, saturated
    under cancellation by rounds: every round rebuilds every silent closure
    and adds a silent edge p -> q for each p ->x r ~~> s ->x^-1 q pattern,
    until a round adds none.  Returns the closures as frozensets.
    """
    eps = defaultdict(set)

    def closures():
        out = []
        for s in range(nstates):
            seen = {s}
            stack = [s]
            while stack:
                p = stack.pop()
                for q in eps[p]:
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
            out.append(frozenset(seen))
        return out

    while True:
        cl = closures()
        added = False
        for (p, letter), targets in list(trans.items()):
            for r in targets:
                for s in cl[r]:
                    for q in trans.get((s, -letter), ()):
                        if q not in eps[p] and q != p:
                            eps[p].add(q)
                            added = True
        if not added:
            break
    return closures()


def run_saturated(trans, closure, word):
    """Run a saturated automaton on a reduced word with set-valued closures;
    accept iff the initial state is reached."""
    current = closure[0]
    for letter in word.letters:
        nxt = set()
        for s in current:
            for t in trans.get((s, letter), ()):
                nxt |= closure[t]
        if not nxt:
            return False
        current = frozenset(nxt)
    return 0 in current


def enumerate_products(generators, rank, max_factors):
    """Reduced forms of every product of at most max_factors generators."""
    out = {identity_word(rank)}
    for k in range(1, max_factors + 1):
        for combo in iproduct(range(len(generators)), repeat=k):
            w = identity_word(rank)
            for gi in combo:
                w = word_mul(w, generators[gi])
            out.add(w)
    return out


def random_reduced_word(rng, rank, max_len):
    n = rng.randint(0, max_len)
    letters = []
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(n):
        choices = [a for a in alphabet if not letters or a != -letters[-1]]
        letters.append(rng.choice(choices))
    return ReducedWord(letters, rank)


def brute_lattice_points(rays, coefficients, radius):
    """Exhaustive scan of the divisor polytope over an integer box."""
    n = len(rays[0])
    pts = []
    for point in iproduct(range(-radius, radius + 1), repeat=n):
        ok = all(sum(p * v for p, v in zip(point, ray)) >= -a
                 for ray, a in zip(rays, coefficients))
        if ok:
            pts.append(tuple(point))
    return sorted(pts)


def triangle_count(d):
    """Lattice points of the standard d-dilated unit triangle."""
    return (d + 1) * (d + 2) // 2


def random_gauss(rng, span=5):
    return GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                         Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def random_matrix(rng, r, span=5):
    return [[random_gauss(rng, span) for _ in range(r)] for _ in range(r)]


def qim_from_rows(rows):
    """A Q(i)-matrix from rows of ints, Fractions or Gaussian rationals."""
    return [[v if isinstance(v, GaussRational) else GaussRational(v) for v in row]
            for row in rows]


def qi_solve(columns, target):
    """Coefficients x with sum x_j columns[j] = target over Q(i), or None."""
    if not columns:
        return [] if all(not v for v in target) else None
    ech = Echelon()
    for j, col in enumerate(columns):
        ech.add(sparse_vector(col), j)
    sol = ech.solve(sparse_vector(target))
    if sol is None:
        return None
    return [sol.get(j, ZERO) for j in range(len(columns))]


def int_matmul(a, b):
    """Product of integer matrices given as lists of rows."""
    if not a:
        return []
    nb = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(nb)]
            for i in range(len(a))]


def poly_eval_matrix(poly, a):
    """p(a) for a coefficient list p, lowest degree first."""
    r = len(a)
    acc = qim_zero(r)
    power = qim_identity(r)
    for c in poly:
        acc = qim_add(acc, qim_scale(c, power))
        power = qim_mul(power, a)
    return acc


def is_homogeneous(a):
    """True iff every word of the algebra element has the same abelianization."""
    return len({abelianize(w) for w in a.terms}) <= 1


def products_by_word(system, chart, length):
    """Every product of at most `length` generator images of one chart,
    valued e*rho(g1)*...*rho(gk) as the relation clause of Def 4.2.1 reads
    it, grouped by the free reduction of g1...gk: {letter tuple: [matrix,
    ...]}. Each sequence of generators with images is multiplied out, one
    product per sequence, depth first."""
    gens = [g for g in system.charts[chart.cone].generators if g in chart.images]
    groups = defaultdict(list)

    def walk(letters, value, depth):
        groups[letters].append(value)
        if depth < length:
            for g in gens:
                walk(free_reduce(letters + g.letters), qim_mul(value, chart.images[g]),
                     depth + 1)

    walk((), chart.identity_image, 0)
    return groups


def inconsistent_words(system, chart, length):
    """The reduced words (letter tuples) on which two products of at most
    `length` generators take different values."""
    return {w for w, values in products_by_word(system, chart, length).items()
            if any(v != values[0] for v in values[1:])}


def graph_of_morphism(morphism, bound):
    """Per-cone word-to-matrix action maps: the module structure carried by
    the fundamental column space, truncated at the bound."""
    out = {}
    rank = morphism.system.fan.rank
    for cone, chart in morphism.charts.items():
        groups = products_by_word(morphism.system, chart, bound)
        if any(v != values[0] for values in groups.values() for v in values):
            raise MorphismInvalid("generator relations are inconsistent on the chart")
        out[cone] = {ReducedWord(w, rank): values[0] for w, values in groups.items()}
    return out


class InsertionEchelon:
    """Row echelon form over Q(i) that reduces a vector against its rows in
    insertion order: each row is reduced against every earlier row and
    scaled to ONE at its pivot, the smallest key of its residual, so one
    pass over the rows reduces any vector. Same interface as
    nctoric.exactmath.Echelon, with rows a list of (pivot, entries off the
    pivot, combination or None)."""

    def __init__(self):
        self.rows = []

    def reduce(self, vec, track=False):
        vec = dict(vec)
        combo = {} if track else None
        for piv, rest, rcombo in self.rows:
            f = vec.pop(piv, None)
            if f is None:
                continue
            for k, v in rest.items():
                x = vec.get(k, ZERO) - f * v
                if x:
                    vec[k] = x
                else:
                    vec.pop(k, None)
            if track:
                for t, v in rcombo.items():
                    x = combo.get(t, ZERO) + f * v
                    if x:
                        combo[t] = x
                    else:
                        combo.pop(t, None)
        return vec, combo

    def add(self, vec, tag=None):
        track = tag is not None
        residual, combo = self.reduce(vec, track)
        if not residual:
            return False, combo
        piv = min(residual)
        s = ONE / residual.pop(piv)
        rest = {k: s * v for k, v in residual.items()}
        rcombo = None
        if track:
            rcombo = {t: -s * v for t, v in combo.items()}
            rcombo[tag] = s
        self.rows.append((piv, rest, rcombo))
        return True, None

    def solve(self, vec):
        residual, combo = self.reduce(vec, track=True)
        return None if residual else combo


def surrogate_by_rounds(morphism):
    """The surrogate span closure by full rounds: every round multiplies
    every pair of the basis so far, until a round adds nothing; spans are
    kept in an InsertionEchelon. Besides the idempotents and images it feeds
    in the corner inverse of every unit generator's image. The input
    morphism must be valid."""
    r = morphism.rank_r
    mats = [qim_identity(r)]
    for chart in morphism.charts.values():
        sub = morphism.system.charts[chart.cone]
        mats.append(chart.identity_image)
        mats.extend(chart.images.values())
        mats.extend(solve_corner_inverse(chart.identity_image, a)
                    for g, a in chart.images.items() if is_unit_in(sub, g))
    span = InsertionEchelon()
    out = []

    def try_add(m):
        if not span.add(sparse_vector(qim_flatten(m)))[0]:
            return False
        out.append(m)
        return True

    for m in mats:
        try_add(m)
    changed = True
    while changed:
        changed = False
        snapshot = list(out)
        for a in snapshot:
            for b in snapshot:
                if try_add(qim_mul(a, b)):
                    changed = True
    return out


def classify_by_definition(fan, idempotents):
    """A cone-indexed family of idempotents classified from the definitions,
    every identity checked in both orders: strong (Def 4.2.6) is
    e_a e_b = e_(a ^ b) for every ordered pair of faces, the diagonal
    included; weak (Def 4.2.2) is e_a e_b = e_a = e_b e_a for every face a
    inside a face b; the reduced idempotents (Lemma-Def 4.2.7) are the
    alternating sums over the faces of each cone, and reduced_ok says they
    are idempotent and pairwise orthogonal in both orders; complete says
    they sum to the identity. reduced, reduced_ok and complete are None
    unless the family is strong."""
    faces = list(fan.faces)
    idem = {tuple(c): m for c, m in idempotents.items()}
    r = len(idem[faces[0]])
    strong = all(qim_mul(idem[a], idem[b]) == idem[tuple(sorted(set(a) & set(b)))]
                 for a in faces for b in faces)
    weak = all(qim_mul(idem[a], idem[b]) == idem[a]
               and qim_mul(idem[b], idem[a]) == idem[a]
               for a in faces for b in faces if set(a) <= set(b))
    out = {"strong": strong, "weak": weak, "reduced": None, "reduced_ok": None,
           "complete": None}
    if not strong:
        return out
    reduced = {}
    for cone in faces:
        acc = qim_zero(r)
        for k in range(len(cone) + 1):
            sign = GaussRational((-1) ** (len(cone) - k))
            for face in combinations(cone, k):
                acc = qim_add(acc, qim_scale(sign, idem[face]))
        reduced[cone] = acc
    out["reduced"] = reduced
    out["reduced_ok"] = all(
        qim_mul(reduced[a], reduced[b]) == reduced[a] if a == b
        else qim_is_zero(qim_mul(reduced[a], reduced[b]))
        for a in faces for b in faces)
    total = qim_zero(r)
    for cone in faces:
        total = qim_add(total, reduced[cone])
    out["complete"] = total == qim_identity(r)
    return out


def sample_by_blocks(system, r, pattern, seed):
    """Matrix-model sampling by reduced-idempotent blocks: each letter's
    random matrix is compressed to every nonzero reduced block, the block's
    corner inverse is solved wherever an inverse letter must be evaluated
    there (the draw is rejected when one is missing), and a chart sends a
    word to the sum over the blocks inside its cone of the product of the
    letter blocks along the word. The pattern must be a complete strong
    family; returns cone -> (identity image, {generator: image})."""
    fan = system.fan
    reduced = classify_by_definition(fan, pattern)["reduced"]
    live = [cone for cone in fan.faces if not qim_is_zero(reduced[cone])]
    rng = random.Random(seed)
    inverse_needed = {i: set() for i in range(1, fan.rank + 1)}
    for cone in fan.faces:
        chart = system.charts[cone]
        seen = set()
        for g in chart.generators:
            seen.update(-l for l in g.letters if l < 0)
            if is_unit_in(chart, g):
                seen.update(abs(l) for l in g.letters)
        for block in live:
            if set(block) <= set(cone):
                for i in seen:
                    inverse_needed[i].add(block)

    def entry():
        return GaussRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                             Fraction(rng.randint(-2, 2), 1))

    letter_blocks = {}
    for i in range(1, fan.rank + 1):
        while True:
            m = [[entry() for _ in range(r)] for _ in range(r)]
            blocks = {}
            for cone in live:
                b = qim_mul(qim_mul(reduced[cone], m), reduced[cone])
                inv = None
                if cone in inverse_needed[i]:
                    inv = solve_corner_inverse(reduced[cone], b)
                    if inv is None:
                        break
                blocks[cone] = (b, inv)
            else:
                letter_blocks[i] = blocks
                break

    def value(word, cone):
        acc = qim_zero(r)
        for block in live:
            if set(block) <= set(cone):
                part = reduced[block]
                for l in word.letters:
                    b, inv = letter_blocks[abs(l)][block]
                    part = qim_mul(part, b if l > 0 else inv)
                acc = qim_add(acc, part)
        return acc

    return {cone: (pattern[cone], {g: value(g, cone) for g in system.charts[cone].generators})
            for cone in fan.faces}


def gauss_divisors_by_scan(z):
    """Every Gaussian integer a+bi with a^2 + b^2 <= N(z) that divides z,
    as (a, b) pairs: a divisor's norm divides N(z), so none is left out."""
    x, y = z
    norm = x * x + y * y
    side = isqrt(norm)
    found = set()
    for a, b in iproduct(range(-side, side + 1), repeat=2):
        n = a * a + b * b
        # z / (a+bi) = z (a-bi) / n
        if 0 < n <= norm and (x * a + y * b) % n == 0 and (y * a - x * b) % n == 0:
            found.add((a, b))
    return found


def _det(rows):
    """Determinant by cofactor expansion along the first row; 1 for 0x0."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _rank_and_minor_gcd(rows, n):
    """(k, d) for integer rows of length n: k is the rank, the largest size
    of a nonzero minor, and d the gcd of the k x k minors."""
    def minor_gcd(k):
        return gcd(*(_det([[row[c] for c in cols] for row in sub])
                     for sub in combinations(rows, k) for cols in combinations(range(n), k)))

    k = max(k for k in range(min(len(rows), n) + 1) if minor_gcd(k))
    return k, minor_gcd(k)


def in_row_lattice(rows, target):
    """Whether target is an integer combination of rows. Adding target to
    the rows spans a lattice L' over the rows' lattice L; when both have
    rank k, [L' : L] is the ratio of their gcds of k x k minors, so target
    lies in L exactly when the rank and that gcd stay the same."""
    rows = [list(r) for r in rows]
    n = len(target)
    return _rank_and_minor_gcd(rows, n) == _rank_and_minor_gcd(rows + [list(target)], n)


def monoid_search_by_product(gens, target, functional):
    """The non-unit coefficients of the first answer of the bounded
    commutative-monoid search, or None. A generator whose negative is also
    listed is a unit; every other one must pair positively with the
    functional. The non-unit coefficient vectors are listed in lexicographic
    order, each coefficient up to budget // value; the first that uses the
    whole budget and leaves a residual in the units' lattice is the
    answer."""
    negatives = {tuple(-x for x in g) for g in gens}
    units = [g for g in gens if tuple(g) in negatives]
    other = [g for g in gens if tuple(g) not in negatives]
    budget = sum(f * t for f, t in zip(functional, target))
    values = [sum(f * x for f, x in zip(functional, g)) for g in other]
    if budget < 0:
        return None
    for coeffs in iproduct(*(range(budget // v + 1) for v in values)):
        if sum(c * v for c, v in zip(coeffs, values)) != budget:
            continue
        residual = [t - sum(c * g[j] for c, g in zip(coeffs, other))
                    for j, t in enumerate(target)]
        if in_row_lattice(units, residual):
            return list(coeffs)
    return None


def section_units_by_all_pairs(section):
    """{(upper, lower): unit} on each incidence where neither presentation
    vanishes: the first quotient c*w of a transported monomial by a lower
    monomial, over every pair, with w a unit of the lower chart and c*w
    times the lower presentation equal to the transported one; None when no
    pair gives one."""
    gluing = section.gluing
    out = {}
    for pair in sorted(gluing.system.fan.incidence_pairs()):
        upper, lower = pair
        transported = (section.locals[upper] * gluing.words[pair]).scale(gluing.scalars[pair])
        s_lower = section.locals[lower]
        if not transported or not s_lower:
            continue
        chart = gluing.system.charts[lower]
        out[pair] = next(((ct / cs, w) for wt, ct in transported.terms.items()
                          for ws, cs in s_lower.terms.items()
                          if is_unit_in(chart, w := word_mul(wt, word_inv(ws)))
                          and AlgElem(w.rank, {w: ct / cs}) * s_lower == transported), None)
    return out


def pair_words_by_filter(rank, budget):
    """Every pair of words up to the budget, shortest first, filtered to
    total length within the budget."""
    if budget < 0:
        return []
    words = words_up_to(rank, budget)
    return [(x, y) for x in words for y in words if len(x) + len(y) <= budget]


# Free-algebra arithmetic over Q(i) on {letter tuple: coefficient} dicts

def free_reduce(letters):
    """Free reduction of any letter sequence, by a stack."""
    out = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def letter_dict(elem):
    """An AlgElem as {letter tuple: coefficient}."""
    return {w.letters: c for w, c in elem.terms.items()}


def alg_combine(pairs):
    """Sum of coefficient * product of letter dicts, over (coefficient,
    [dict, ...]) pairs, zero terms dropped."""
    out = {}
    for coeff, factors in pairs:
        terms = {(): coeff}
        for f in factors:
            nxt = {}
            for wa, ca in terms.items():
                for wb, cb in f.items():
                    w = free_reduce(wa + wb)
                    nxt[w] = nxt.get(w, ZERO) + ca * cb
            terms = nxt
        for w, c in terms.items():
            out[w] = out.get(w, ZERO) + c
    return {w: c for w, c in out.items() if c}


def shadow(terms, rank):
    """Commutative shadow of a letter dict: {exponent vector: coefficient},
    zero terms dropped."""
    out = {}
    for letters, c in terms.items():
        v = [0] * rank
        for k in letters:
            v[abs(k) - 1] += 1 if k > 0 else -1
        out[tuple(v)] = out.get(tuple(v), ZERO) + c
    return {v: c for v, c in out.items() if c}


def _closed_chart(fan, cone, words):
    """The words, each once, then the inverses of those whose exponent
    vector pairs to zero with every ray of the cone, then, on the zero cone,
    the letters."""
    out = []
    for w in words:
        if w not in out:
            out.append(w)
    for w in list(out):
        vec = abelianize(w)
        kills = all(sum(a * b for a, b in zip(vec, fan.rays[i])) == 0 for i in cone)
        if kills and word_inv(w) not in out:
            out.append(word_inv(w))
    if not cone:
        for i in range(1, fan.rank + 1):
            for letter in (ReducedWord((i,), fan.rank), ReducedWord((-i,), fan.rank)):
                if letter not in out:
                    out.append(letter)
    return out


def union_of_maximal_charts(fan, maximal):
    """Build from lifts and completion (Thm 2.2.5, Prop 2.2.9) read
    directly: each lower chart is the union of the maximal charts that
    contain the cone, in fan.max_cones order, closed. maximal maps each
    maximal cone to its generator list; returns cone -> word list."""
    charts = {}
    for tau in fan.faces:
        if tau in fan.max_cones:
            charts[tau] = list(dict.fromkeys(maximal[tau]))
        else:
            charts[tau] = _closed_chart(fan, tau, [
                w for sigma in fan.max_cones if set(tau) <= set(sigma) for w in maximal[sigma]])
    return charts


def immediate_cover_descent(fan, charts, extra):
    """Augmentation (Prop 2.2.10) by descending dimension: each maximal
    chart gains its extras; then, from the top dimension down, each lower
    chart takes its words, its extras and the words of the faces one
    dimension above it (in fan.faces order), closed. charts maps every cone
    to its word list; returns the new map."""
    def grown(cone):
        out = list(charts[cone])
        for w in extra.get(cone, ()):
            if w not in out and not w.is_identity():
                out.append(w)
        return out

    new = {sigma: grown(sigma) for sigma in fan.max_cones}
    for dim in range(fan.rank - 1, -1, -1):
        for tau in fan.faces:
            if len(tau) == dim and tau not in new:
                covers = [c for c in fan.faces if len(c) == dim + 1 and set(tau) < set(c)]
                new[tau] = _closed_chart(fan, tau, grown(tau) + [
                    w for c in covers for w in new[c]])
    return new


def equal_charts(a, b):
    """Whether two chart systems have the same cones and, on each cone, the
    same generator list in the same order."""
    if set(a.charts) != set(b.charts):
        return False
    return all(a.charts[c].generators == b.charts[c].generators for c in a.charts)


def l_commutative_gens(rank, level, degree_bound):
    """Commutators of single letters against positive words of the given
    level, the generator set of the nested commutativity ideal."""
    if degree_bound < level + 1:
        raise ValueError("degree bound must be at least level + 1")
    gens = []
    seen = set()
    positive = [w for w in words_up_to(rank, level)
                if len(w) == level and all(k > 0 for k in w.letters)]
    for i in range(1, rank + 1):
        zi = ReducedWord((i,), rank)
        for w in positive:
            c = AlgElem.from_word(word_mul(zi, w)) + AlgElem.from_word(word_mul(w, zi), -ONE)
            if not c:
                continue
            key = frozenset(c.terms)
            if key in seen:
                continue
            seen.add(key)
            gens.append(c)
    return BoundedIdeal(tuple(gens), degree_bound)


def whole_echelon_member(ideal, target):
    """Bounded ideal membership with every product x*g*y within the bound
    in one tagged echelon, numbered as the library numbers them: the
    library's certificate must equal this one term for term, and None
    must meet None. The caller keeps the target within the bound."""
    ech = Echelon()
    keys = []
    for gi, g in enumerate(ideal.generators):
        for (x, y), col in _ideal_columns(target.rank, g, ideal.degree_bound - g.max_word_len()):
            ech.add(col, len(keys))
            keys.append((x, gi, y))
    combo = ech.solve(_word_vector(target))
    if combo is None:
        return None
    return MemberCertificate(tuple((c, *keys[j]) for j, c in sorted(combo.items())))


def complete_system(fan, partial):
    """Extend admissible maximal charts downward to a full chart system
    (Prop 2.2.9). partial maps every maximal cone to its generating words;
    the maximal charts are kept verbatim, and the lower charts grow from
    them as seeds. Raises ValueError on inadmissible input."""
    seeds = {}
    for sigma in fan.max_cones:
        if sigma not in partial:
            raise ValueError(f"no chart supplied for maximal cone {list(sigma)}")
        words = list(partial[sigma])
        for w in words:
            if not _in_dual(abelianize(w), fan, sigma):
                raise ValueError(
                    f"generator {format_word(w)} of cone {list(sigma)} leaves the dual cone")
        supplied = ChartSystem(fan=fan, charts={sigma: Submonoid(words, fan.rank)})
        for f in admissible_cone_findings(supplied, sigma):
            if not f.ok:
                raise ValueError(f"{f.locus}: {f.clause} fails for {f.detail}")
        seeds[sigma] = words
    return _system_from_seeds(fan, seeds)


def regrown_system(system, extra):
    """The system augmented by extra with every chart regrown from all of
    its generators and its extras, identities dropped, instead of grown by
    appending: the charts `augment_system` and `soften` must give, in the
    same order."""
    seeds = {cone: [*system.charts[cone].generators,
                    *(w for w in extra.get(cone, ()) if not w.is_identity())]
             for cone in system.fan.faces}
    return _system_from_seeds(system.fan, seeds)
