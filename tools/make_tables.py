#!/usr/bin/env python3
"""Generate the Cayley-table fixtures bundled with gyrokit.

z4.json and klein4.json are ordinary groups.  g8.json is a gyrogroup of
order 8 with nontrivial gyrations, found by scanning left transversals:
for a group Gamma, a subgroup H, and a transversal B (one representative
per left coset bH, with the identity representing H), the operation

    a (+) b := the representative c with a.b in cH

turns some transversals into gyrogroups that are not groups.  Only
non-normal H can work (normal H reproduces the quotient group), so the
scan walks non-normal subgroups of small non-abelian groups.  Every
candidate table is validated exhaustively by gyrokit's own axiom suite,
so the frozen output is certified independently of transversal theory.

The scan is deterministic: cosets, representative choices, and candidate
ranking are all iterated in sorted order.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gyrokit.core import TableError
from gyrokit.cosets import is_L_subgyrogroup, is_subgyrogroup
from gyrokit.models import FiniteTable, cyclic_table, klein_table
from gyrokit.sets import FiniteSet

DEST = Path(__file__).resolve().parent.parent / "src" / "gyrokit" / "tables"


# ---------------------------------------------------------------- groups

def perm_mul(p, q):
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_closure(gens, degree):
    e = tuple(range(degree))
    elems = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = perm_mul(a, g)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(elems)


def regular_rep(elems, mul):
    """Left-regular permutation representation of an abstract group."""
    elems = sorted(elems)
    idx = {g: i for i, g in enumerate(elems)}
    perms = {g: tuple(idx[mul(g, h)] for h in elems) for g in elems}
    return perms


def group_from_mul(elems, mul, hgens_list):
    """(all perms sorted, [subgroup perms]) from an abstract description."""
    rep = regular_rep(elems, mul)
    group = sorted(rep.values())
    subs = []
    for hgens in hgens_list:
        sub = perm_closure([rep[h] for h in hgens], len(group))
        subs.append(sub)
    return group, subs


def semidihedral_like(n, t):
    """Order-2n group <a, b | a^n, b^2, b a b = a^t>; elements (k, e)."""
    def mul(x, y):
        k, e = x
        m, f = y
        if e == 0:
            return ((k + m) % n, f)
        return ((k + t * m) % n, 1 - f)
    elems = [(k, e) for k in range(n) for e in (0, 1)]
    return elems, mul


def dihedral(n):
    return semidihedral_like(n, n - 1)


def c2c2_semi_c4():
    """<a, b, c | a^2, b^2, c^4, ab=ba, c a c^-1 = b>; elements (x, y, k)."""
    def mul(p, q):
        x, y, k = p
        u, v, m = q
        if k % 2:
            u, v = v, u
        return ((x + u) % 2, (y + v) % 2, (k + m) % 4)
    elems = [(x, y, k) for x in (0, 1) for y in (0, 1) for k in range(4)]
    return elems, mul


def direct_product(e1, m1, e2, m2):
    def mul(p, q):
        return (m1(p[0], q[0]), m2(p[1], q[1]))
    return [(a, b) for a in e1 for b in e2], mul


def sl23():
    """SL(2, 3) as 2x2 matrices over F_3, flattened to tuples."""
    def mul(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)
    elems = [m for m in itertools.product(range(3), repeat=4)
             if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    return elems, mul


def candidate_pairs():
    """Deterministic list of (name, group-perms, subgroup-perms) to scan."""
    out = []

    d8e, d8m = semidihedral_like(8, 7)      # dihedral of order 16
    g, subs = group_from_mul(d8e, d8m, [[(0, 1)], [(1, 1)], [(2, 1)]])
    out += [("D8/" + s, g, h) for s, h in zip(["r0", "r1", "r2"], subs)]

    sde, sdm = semidihedral_like(8, 3)      # semidihedral of order 16
    g, subs = group_from_mul(sde, sdm, [[(0, 1)], [(2, 1)], [(4, 1)]])
    out += [("SD16/" + s, g, h) for s, h in zip(["b0", "b2", "b4"], subs)]

    m4e, m4m = semidihedral_like(8, 5)      # modular group of order 16
    g, subs = group_from_mul(m4e, m4m, [[(0, 1)], [(4, 0)]])
    out += [("M4(2)/" + s, g, h) for s, h in zip(["b", "a4"], subs)]

    pe, pm = c2c2_semi_c4()                 # (C2 x C2) : C4, order 16
    g, subs = group_from_mul(pe, pm, [[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]])
    out += [("C22:C4/" + s, g, h) for s, h in zip(["a", "b", "ab"], subs)]

    d4e, d4m = semidihedral_like(4, 3)      # D4 x C2, order 16
    dpe, dpm = direct_product(d4e, d4m, [0, 1], lambda a, b: (a + b) % 2)
    g, subs = group_from_mul(dpe, dpm, [[((0, 1), 0)], [((0, 1), 1)],
                                        [((1, 1), 0)]])
    out += [("D4xC2/" + s, g, h) for s, h in zip(["s", "sz", "rs"], subs)]

    s4 = perm_closure([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    for name, gens in [("C3", [(1, 2, 0, 3)]), ("C2", [(1, 0, 2, 3)]),
                       ("C4", [(1, 2, 3, 0)]),
                       ("S3", [(1, 0, 2, 3), (0, 2, 1, 3)])]:
        out.append(("S4/" + name, s4, perm_closure(gens, 4)))

    se, sm = sl23()
    g, subs = group_from_mul(se, sm, [[(1, 1, 0, 1)], [(1, 0, 1, 1)]])
    out += [("SL23/" + s, g, h) for s, h in zip(["u", "l"], subs)]

    return out


# ------------------------------------------------------------ transversals

def is_normal(group, sub):
    s = set(sub)
    inv = {p: tuple(sorted(range(len(p)), key=p.__getitem__)) for p in group}
    # p^-1 computed via argsort of p
    for g in group:
        gi = inv[g]
        for h in sub:
            if perm_mul(perm_mul(g, h), gi) not in s:
                return False
    return True


def left_cosets(group, sub):
    seen = set()
    cosets = []
    for g in group:
        coset = frozenset(perm_mul(g, h) for h in sub)
        if coset not in seen:
            seen.add(coset)
            cosets.append(sorted(coset))
    return cosets


def transversal_table(sub, reps):
    rep_of = {}
    for i, r in enumerate(reps):
        for h in sub:
            rep_of[perm_mul(r, h)] = i
    n = len(reps)
    return [[rep_of[perm_mul(reps[a], reps[b])] for b in range(n)]
            for a in range(n)]


def find_l_subgyrogroups(model):
    """All L-subgyrogroups, by brute force over subsets containing 0."""
    subsets = ((0,) + extra for r in range(model.n)
               for extra in itertools.combinations(range(1, model.n), r))
    return [s for s in subsets if is_subgyrogroup(model, s)[0]
            and is_L_subgyrogroup(model, s)[0]]


def scan(group, sub, max_order=16, limit=200_000):
    """Yield (table, proper-L-subgyros, gyr-invariant ones) for non-groups."""
    if len(group) // len(sub) > max_order or is_normal(group, sub):
        return
    cosets = left_cosets(group, sub)
    e = tuple(range(len(group[0])))
    cosets.sort(key=lambda c: (e not in c, c))
    assert e in cosets[0]
    choice_lists = [[e]] + [list(c) for c in cosets[1:]]
    total = 1
    for c in choice_lists:
        total *= len(c)
    if total > limit:
        return
    for reps in itertools.product(*choice_lists):
        table = transversal_table(sub, list(reps))
        try:
            model = FiniteTable(table, name="candidate")
        except TableError:
            continue
        if model.is_group():
            continue
        lsubs = find_l_subgyrogroups(model)
        proper = [s for s in lsubs if 1 < len(s) < model.n]
        invariant = [s for s in proper if FiniteSet(model.n, indices=s)
                     .gyr_invariance_witness(model) is None]
        yield table, proper, invariant


def main():
    DEST.mkdir(parents=True, exist_ok=True)

    z4 = cyclic_table(4)
    (DEST / "z4.json").write_text(
        json.dumps(z4.to_dict(), indent=1, sort_keys=True) + "\n")
    k4 = klein_table()
    (DEST / "klein4.json").write_text(
        json.dumps(k4.to_dict(), indent=1, sort_keys=True) + "\n")
    print("wrote z4.json, klein4.json")

    best = None
    for name, group, sub in candidate_pairs():
        hits = 0
        for table, proper, invariant in scan(group, sub):
            hits += 1
            score = (len(invariant), len(proper), -len(table))
            if best is None or score > best[0]:
                best = (score, table, proper, invariant, name)
                print(f"{name}: order {len(table)} non-group gyrogroup, "
                      f"proper L-subgyros {proper}, gyr-invariant {invariant}")
        if hits:
            print(f"{name}: {hits} non-group gyrogroup transversals")

    if best is None:
        print("no non-group gyrogroup found")
        return 1

    _, table, proper, invariant, name = best
    model = FiniteTable(table, name="g8")
    doc = model.to_dict()
    doc["source"] = f"left transversal in {name}"
    (DEST / "g8.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote g8.json from {name}; order {model.n}; "
          f"nontrivial gyrations: {not model.is_group()}")
    print("proper L-subgyrogroups:", proper)
    print("gyr-invariant proper L-subgyrogroups:", invariant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
