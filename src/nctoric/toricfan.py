"""Lattices, simplicial index-1 cones, validated fans with the dual bases
of their maximal cones, torus-invariant divisors and the lattice points of
their polytopes, and commutative monoid membership with bounded search.

Cones are purely combinatorial: a face is the sorted tuple of its ray
indices, the zero cone is the empty tuple.  Geometry is recomputed from the
ray vectors on demand, except the dual basis of each maximal cone, which
validation reads off the cone's index check and keeps on the fan.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (Frozen, MissingReferenceCone, NoPositivityFunctional,
                     NonPrimitiveRay, NotAFan, NotIndexOne)
from .exactmath import hnf, lattice_points, lattice_solver, linear_feasible


def pairing(m, v):
    """Evaluation of a dual vector against a ray vector."""
    return sum(a * b for a, b in zip(m, v))


def is_primitive(v):
    return gcd(*v) == 1


class Fan(Frozen):
    """A validated fan; immutable. Equality reads the rank, rays, maximal
    cones and faces, not the certificates or dual bases derived from them."""
    __slots__ = ("rank", "rays", "max_cones", "faces", "pair_certificates", "duals")

    def __init__(self, rank, rays, max_cones, faces, pair_certificates, duals):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "pair_certificates", pair_certificates)
        object.__setattr__(self, "duals", duals)   # maximal cone -> dual basis

    def __eq__(self, other):
        if other.__class__ is not Fan:
            return NotImplemented
        return ((self.rank, self.rays, self.max_cones, self.faces)
                == (other.rank, other.rays, other.max_cones, other.faces))

    def is_maximal(self, cone):
        return cone in self.max_cones

    def covering_max_cones(self, cone):
        s = set(cone)
        return [c for c in self.max_cones if s <= set(c)]

    def incidence_pairs(self):
        """All (upper, lower) pairs with lower a proper face of upper."""
        out = []
        for upper in self.faces:
            us = set(upper)
            for lower in self.faces:
                if lower != upper and set(lower) < us:
                    out.append((upper, lower))
        return out

    def chains(self):
        """All (upper, middle, lower) chains of strictly nested faces."""
        out = []
        for (upper, mid) in self.incidence_pairs():
            ms = set(mid)
            for lower in self.faces:
                if lower != mid and set(lower) < ms:
                    out.append((upper, mid, lower))
        return out


def _canon_cone(indices):
    return tuple(sorted(int(i) for i in indices))


def _all_faces(max_cones):
    faces = set()
    for cone in max_cones:
        n = len(cone)
        for mask in range(1 << n):
            faces.add(tuple(cone[i] for i in range(n) if mask >> i & 1))
    return tuple(sorted(faces, key=lambda c: (len(c), c)))


def _separation(rays, cone_a, cone_b):
    """What a functional separating two cones must do, as (ray, sign) pairs:
    pair to >= 1 with the rays of a alone, to <= -1 with those of b alone,
    and to 0 with the shared rays."""
    shared = set(cone_a) & set(cone_b)
    return ([(rays[i], 1) for i in cone_a if i not in shared]
            + [(rays[i], -1) for i in cone_b if i not in shared]
            + [(rays[i], 0) for i in shared])


def _separating_functional(rank, constraints):
    ineqs = []
    for v, sign in constraints:
        if sign:
            ineqs.append((tuple(Fraction(sign * x) for x in v), Fraction(1)))
        else:
            ineqs.append((tuple(Fraction(x) for x in v), Fraction(0)))
            ineqs.append((tuple(Fraction(-x) for x in v), Fraction(0)))
    witness = linear_feasible(ineqs, rank)
    if witness is None:
        return None
    denom = lcm(*(w.denominator for w in witness))
    return tuple(int(w * denom) for w in witness)


def check_certificate(fan_rays, cone_a, cone_b, functional):
    return all(pairing(functional, v) * sign >= 1 if sign else pairing(functional, v) == 0
               for v, sign in _separation(fan_rays, cone_a, cone_b))


def validate_fan(rank, rays, max_cones, certificates=None):
    """Check every fan invariant and return the validated Fan.

    certificates, when given, maps (earlier, later) pairs of maximal cones,
    in max_cones order, to candidate separating functionals; they are
    verified and kept, with a feasibility search as fallback for missing
    pairs.
    """
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    for idx, r in enumerate(rays):
        if len(r) != rank:
            raise NonPrimitiveRay(f"ray {idx} has length {len(r)}, expected {rank}")
        if not is_primitive(r):
            raise NonPrimitiveRay(f"ray {idx} = {list(r)} is not primitive")
    cones = tuple(_canon_cone(c) for c in max_cones)
    duals = {}
    for cone in cones:
        if cone in duals:
            raise NotAFan(f"maximal cone {list(cone)} listed twice")
        if len(cone) != rank or len(set(cone)) != rank:
            raise NotIndexOne(f"maximal cone {list(cone)} does not have {rank} distinct rays")
        if any(i < 0 or i >= len(rays) for i in cone):
            raise NotAFan(f"maximal cone {list(cone)} references a missing ray")
        # |det| is the product of the Hermite normal form's diagonal, 0 when
        # the rays are dependent. At index 1 the form is the identity and its
        # transform the inverse of the ray matrix V, whose columns are the
        # dual basis: <u_j, v_i> = delta_ij.
        h, inverse = hnf([list(rays[i]) for i in cone])
        index = prod(h[i][i] for i in range(rank))
        if index != 1:
            raise NotIndexOne(f"maximal cone {list(cone)} has index |det| = {index}")
        duals[cone] = tuple(tuple(row[j] for row in inverse) for j in range(rank))
    basis_indices = []
    for i in range(rank):
        e = tuple(int(j == i) for j in range(rank))
        if e not in rays:
            raise MissingReferenceCone(f"standard basis vector {list(e)} is not a ray")
        basis_indices.append(rays.index(e))
    if _canon_cone(basis_indices) not in cones:
        raise MissingReferenceCone(
            "the cone on the standard basis is not among the maximal cones")
    certs = {}
    supplied = dict(certificates or {})
    for ai in range(len(cones)):
        for bi in range(ai + 1, len(cones)):
            a, b = cones[ai], cones[bi]
            key = (a, b)
            if key in supplied:
                f = tuple(int(x) for x in supplied[key])
                if not check_certificate(rays, a, b, f):
                    raise NotAFan(
                        f"supplied certificate for cones {list(a)}, {list(b)} fails")
                certs[key] = f
                continue
            f = _separating_functional(rank, _separation(rays, a, b))
            if f is None:
                raise NotAFan(
                    f"cones {list(a)} and {list(b)} do not intersect in a common face")
            certs[key] = f
    # the rays of a fan are the rays of its cones; a ray in no maximal cone
    # would still cut the divisor polytope, though no chart sees it
    covered = {i for cone in cones for i in cone}
    for idx, r in enumerate(rays):
        if idx not in covered:
            raise NotAFan(f"ray {idx} = {list(r)} lies in no maximal cone")
    return Fan(rank=rank, rays=rays, max_cones=cones, faces=_all_faces(cones),
               pair_certificates=certs, duals=duals)


def kills(fan, cone, vec):
    """Whether the vector pairs to zero with every ray of the cone, that is,
    lies in the cone's perpendicular lattice."""
    return all(pairing(vec, fan.rays[i]) == 0 for i in cone)


def cone_monoid_generators(fan, tau):
    """Generators of the dual monoid of a face, with flags marking the ones
    pairing to zero against every ray of the face.

    The zero cone additionally receives the negated standard basis so the
    returned set generates the full dual lattice as a group.
    """
    gens = []
    for sigma in fan.covering_max_cones(tau):
        for u in fan.duals[sigma]:
            if u not in gens:
                gens.append(u)
    if not tau:
        for i in range(fan.rank):
            e = tuple(-int(j == i) for j in range(fan.rank))
            if e not in gens:
                gens.append(e)
    flags = [kills(fan, tau, g) for g in gens]
    return gens, flags


# a divisor sum a_i D_i is the tuple of its coefficients a_i, one per ray

def divisor_vertices(fan, divisor):
    """{cone: vertex exponents of the divisor}: solved on each maximal cone
    and extended to every lower face from its first covering maximal cone
    in fan order."""
    vertex = {}
    for sigma in fan.max_cones:
        duals = fan.duals[sigma]
        m = tuple(
            sum(-divisor[ri] * duals[k][j]
                for k, ri in enumerate(sigma))
            for j in range(fan.rank))
        vertex[sigma] = m
    for tau in fan.faces:
        if not fan.is_maximal(tau):
            vertex[tau] = vertex[fan.covering_max_cones(tau)[0]]
    return vertex


def _polytope_inequalities(fan, divisor):
    """The divisor polytope {m : <m, v_i> >= -a_i} as (v_i, -a_i) pairs."""
    return [(ray, -divisor[ri]) for ri, ray in enumerate(fan.rays)]


def polytope_sections(fan, divisor):
    """All lattice points of the divisor polytope, sorted; raises when the
    polytope is unbounded."""
    return lattice_points(_polytope_inequalities(fan, divisor), fan.rank)


def in_polytope(fan, divisor, point):
    """Whether the point lies in the divisor polytope."""
    return all(pairing(point, ray) >= bound
               for ray, bound in _polytope_inequalities(fan, divisor))


def ray_sum(fan, cone):
    """The sum of the cone's rays (the zero vector for the zero cone).

    It lies in the relative interior of the cone, so it is positive on every
    vector of the dual cone outside the cone's perpendicular lattice and zero
    on that lattice: a positivity functional for any chart of the cone whose
    perpendicular generators come with their inverses.
    """
    return tuple(sum(fan.rays[i][j] for i in cone) for j in range(fan.rank))


def comm_monoid_solver(gens, functional):
    """Solver for nonnegative integer coefficients expressing a target over
    gens.

    Generators occurring together with their exact negatives are treated as
    a group part (solved by lattice algebra; a negative coefficient goes to
    the first generator with the negated vector); the remaining generators
    are searched exhaustively under the integer functional, which must be
    positive on each of them and zero on the group part, so it bounds every
    coefficient. The split, that check, the Hermite normal form of the group
    part and the functional's values are computed once; the returned
    function gives a target's coefficient list, or None.
    """
    gens = [tuple(g) for g in gens]
    first = {g: i for i, g in reversed(list(enumerate(gens)))}    # vector -> its first index
    neg_of = [first.get(tuple(-x for x in g)) for g in gens]
    unit_idx = [i for i, j in enumerate(neg_of) if j is not None]
    unit_gens = [gens[i] for i in unit_idx]
    other_idx = [i for i, j in enumerate(neg_of) if j is None]
    other = [gens[i] for i in other_idx]
    if not (all(pairing(functional, g) > 0 for g in other)
            and all(pairing(functional, b) == 0 for b in unit_gens)):
        raise NoPositivityFunctional(
            f"functional {tuple(functional)} does not bound the search: it must be "
            f"positive on the non-invertible generators and zero on the invertible ones")
    lattice_part = lattice_solver([list(g) for g in unit_gens])
    values = [pairing(functional, go) for go in other]

    def solve(target):
        remaining = pairing(functional, target)
        if remaining < 0:
            return None
        # depth first over the non-unit coefficients, with no recursion: the
        # first generator varies slowest and each coefficient counts up from 0
        coeffs = []
        while True:
            coeffs += [0] * (len(other) - len(coeffs))
            if remaining == 0:
                residual = [t - sum(c * g[j] for c, g in zip(coeffs, other))
                             for j, t in enumerate(target)]
                sol = lattice_part(residual)
                if sol is not None:
                    out = [0] * len(gens)
                    for i, c in zip(other_idx, coeffs):
                        out[i] = c
                    for i, c in zip(unit_idx, sol):
                        if c >= 0:
                            out[i] += c
                        else:
                            out[neg_of[i]] -= c
                    return out
            while coeffs and values[len(coeffs) - 1] > remaining:
                remaining += coeffs.pop() * values[len(coeffs)]
            if not coeffs:
                return None
            coeffs[-1] += 1
            remaining -= values[len(coeffs) - 1]

    return solve


def comm_monoid_member(gens, target, functional):
    """The coefficients comm_monoid_solver(gens, functional) gives the
    target, for a single query."""
    return comm_monoid_solver(gens, functional)(target)
