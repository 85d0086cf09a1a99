"""Finite groups as multiplication tables, plus homomorphism search.

Groups are dense integer tables (numpy int32).  Element 'names' are their
indices.  Multiplication convention throughout: table[a, b] is "a then b",
and permutation composition follows the same order, (p * q)(x) = q[p[x]].
Conjugation of x by g means g^-1 x g.

The searches (homomorphism enumeration, automorphism groups, the suitability
and localization checks) all enumerate candidate generator images filtered by
element order, and the pairs of images of the first two generators also by
the orders of their product and quotient.  A candidate is extended along a
breadth-first spanning tree of the Cayley graph and rejected at the first
off-tree edge (x, gen) where img[x gen] != img[x] img[gen]; agreement on
every edge of the Cayley graph makes a candidate a homomorphism.
Automorphism groups keep their maps as rows of one array and key each map
by its images of a generating set, so the whole table is one gather and one
sorted lookup.  Before each phase of a search its cost is checked against a
budget, so a hopeless search fails fast instead of spinning.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Optional

import numpy as np

DEFAULT_BUDGET = 10**8
PERM_EXPANSION_BOUND = 5040
# the vectorised steps gather at most this many entries at once, a row block
# at a time, so their peak memory does not grow with the search
BLOCK_ENTRIES = 1 << 18


class GroupError(Exception):
    pass


class BudgetExceeded(GroupError):
    pass


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(self, table, name: str = "G", check: bool = True):
        try:
            table = np.asarray(table, dtype=np.int32)
        except OverflowError:
            raise GroupError("table entries out of range") from None
        except (ValueError, TypeError) as exc:
            raise GroupError(f"group table is not a rectangular integer "
                             f"matrix: {exc}") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupError(f"group table must be square, got shape {table.shape}")
        self.table = table
        self.n = int(table.shape[0])
        self.name = name
        if check:
            self._validate()
        self.identity = self._find_identity()
        self.inv = self._build_inverses()

    def _validate(self):
        n = self.n
        if n == 0:
            raise GroupError("empty table")
        if self.table.min() < 0 or self.table.max() >= n:
            raise GroupError("table entries out of range")
        ar = np.arange(n, dtype=np.int32)
        for i in range(n):
            if not np.array_equal(np.sort(self.table[i]), ar):
                raise GroupError(f"row {i} is not a permutation")
            if not np.array_equal(np.sort(self.table[:, i]), ar):
                raise GroupError(f"column {i} is not a permutation")
        # associativity, one row at a time: (a b) c == a (b c)
        T = self.table
        for a in range(n):
            if not np.array_equal(T[T[a], :], T[a][T]):
                raise GroupError(f"associativity fails at element {a}")

    def _find_identity(self) -> int:
        ar = np.arange(self.n, dtype=np.int32)
        for e in range(self.n):
            if np.array_equal(self.table[e], ar) and np.array_equal(self.table[:, e], ar):
                return e
        raise GroupError("no identity element")

    def _build_inverses(self):
        hits = self.table == self.identity
        bad = hits.sum(axis=1) != 1
        if bad.any():
            raise GroupError(f"element {int(np.argmax(bad))} lacks a unique "
                             f"inverse")
        return hits.argmax(axis=1).astype(np.int32)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.n})"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return int(self.table[self.table[self.inv[g], x], g])

    def is_identity(self, a: int) -> bool:
        return a == self.identity

    def order_of(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = int(self.table[acc, a])
            k += 1
        return k

    def element_orders(self):
        return [self.order_of(a) for a in range(self.n)]

    def center(self) -> tuple:
        """The elements that commute with a generating set, in index order.

        Each tested element is the least one outside the subgroup that the
        tested ones generate, and it narrows the candidates.  Once at most
        four are left, comparing their rows with their columns costs less
        than growing the subgroup further."""
        T = self.table
        cand = np.arange(self.n)
        sub = np.array([self.identity])
        inside = np.zeros(self.n, dtype=bool)
        inside[self.identity] = True
        gens: list[int] = []
        while len(cand) > 4:
            if gens:
                sub = self._join(sub, inside, gens)
            if len(sub) == self.n:
                return tuple(cand.tolist())
            x = int(np.argmin(inside))
            cand = cand[T[cand, x] == T[x, cand]]
            gens.append(x)
        central = (T[cand] == T[:, cand].T).all(axis=1)
        return tuple(cand[central].tolist())

    def _join(self, sub, inside, gens):
        """The elements of K = <gens>, for `sub` the elements of H = <gens
        but the last>, `inside` its mask (updated to K's).

        K is a union of right cosets H r.  It holds H x^j for j below the
        least m with x^m in H, x the new generator; then each
        representative times each generator must land in K, and every
        product outside it adds its coset, until none does."""
        T = self.table
        x = gens[-1]
        powers, y = [self.identity], x
        while not inside[y]:
            powers.append(y)
            y = T[y, x]
        got = [T[sub[:, None], powers].ravel()]
        inside[got[0]] = True
        reps = powers[1:]
        while reps:
            added = []
            for y in T[np.array(reps)[:, None], gens].ravel().tolist():
                if not inside[y]:
                    coset = T[sub, y]
                    inside[coset] = True
                    got.append(coset)
                    added.append(y)
            reps = added
        return np.concatenate(got)

    def subgroup_closure(self, gens: Iterable[int]) -> tuple:
        seen = {self.identity}
        frontier = [self.identity]
        gens = sorted(set(gens))
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = int(self.table[x, g])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def generating_set(self) -> tuple:
        """Small generating set, greedily by descending element order."""
        if self.n == 1:
            return ()
        ranked = sorted(range(self.n), key=lambda a: (-self.order_of(a), a))
        gens: list[int] = []
        have = {self.identity}
        for a in ranked:
            if a in have:
                continue
            gens.append(a)
            have = set(self.subgroup_closure(gens))
            if len(have) == self.n:
                return tuple(gens)
        raise GroupError("generating-set search failed")  # unreachable on a valid table


# -- constructions ------------------------------------------------------------

def trivial(name: str = "1") -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name=name, check=False)

def _check_order(order: int, what: str) -> None:
    """Refuse a group of more than PERM_EXPANSION_BOUND elements before its
    table (order**2 entries) or its permutations are allocated."""
    if order > PERM_EXPANSION_BOUND:
        raise GroupError(f"{what} exceeds expansion bound "
                         f"{PERM_EXPANSION_BOUND}")

def _factorial_past(n: int, cap: int) -> int:
    """n!, or a partial product of it once that passes cap."""
    out = 1
    for k in range(2, n + 1):
        out *= k
        if out > cap:
            break
    return out

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    _check_order(n, f"group z{n} of order {n}")
    # row i is 0..n-1 rotated left by i, a window of one doubled range that
    # each row starts one entry later in
    doubled = np.arange(2 * n - 1, dtype=np.int32) % n
    table = np.ndarray((n, n), np.int32, doubled,
                       strides=doubled.strides * 2).copy()
    return FiniteGroup(table, name=f"z{n}", check=False)

def _perm_compose(p, q):
    """p then q, for image arrays: one gather."""
    return q[p]

def perm_group(generators, name: str = "G") -> FiniteGroup:
    """Close a list of permutations (image tuples) and build the table.

    The closure composes each element with each generator once and keeps
    the results as right-multiplication rows, right[j][a] = a gens[j].  It
    holds each element by its inverse, an image array of the narrowest
    unsigned type looked up by its bytes: (a g)^-1 is g^-1 then a^-1, one
    gather of a^-1 at g^-1's fixed index array.

    Each new element b is a gens[j] for its parent a, an earlier element.
    So the left-multiplication rows follow from right, left[i][b] =
    gens[i] b = (gens[i] a) gens[j], and row b of the table is row a
    gathered at left[j]: b y = a (gens[j] y).
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupError("need at least one permutation")
    k = len(gens[0])
    for g in gens:
        if len(g) != k or sorted(g) != list(range(k)):
            raise GroupError(f"not a permutation of 0..{k-1}: {g}")
    inverses = [np.argsort(g) for g in gens]
    ident = np.arange(k, dtype=np.min_scalar_type(max(k - 1, 0)))
    elems = [ident]
    index = {ident.tobytes(): 0}
    right = [[] for _ in gens]
    parent = [None]  # the identity has no parent
    i = 0
    while i < len(elems):
        p = elems[i]
        for j, g in enumerate(inverses):
            q = _perm_compose(g, p)
            key = q.tobytes()
            at = index.get(key)
            if at is None:
                if len(elems) >= PERM_EXPANSION_BOUND:
                    raise GroupError(f"permutation group exceeds expansion "
                                     f"bound {PERM_EXPANSION_BOUND}")
                at = index[key] = len(elems)
                elems.append(q)
                parent.append((i, j))
            right[j].append(at)
        i += 1
    n = len(elems)
    left = []
    for j in range(len(gens)):
        row = [right[j][0]]  # gens[j] itself
        for b in range(1, n):
            a, jb = parent[b]
            row.append(right[jb][row[a]])
        left.append(np.array(row, dtype=np.intp))
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)  # element 0 is the identity
    for b in range(1, n):
        a, j = parent[b]
        table[b] = table[a][left[j]]
    return FiniteGroup(table, name=name, check=False)

def symmetric(n: int) -> FiniteGroup:
    if n == 1:
        return trivial("s1")
    _check_order(_factorial_past(n, PERM_EXPANSION_BOUND), "permutation group")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return perm_group(gens, name=f"s{n}")

def alternating(n: int) -> FiniteGroup:
    if n < 3:
        return trivial(f"a{n}")
    _check_order(_factorial_past(n, 2 * PERM_EXPANSION_BOUND) // 2,
                 "permutation group")
    three = [1, 2, 0] + list(range(3, n))
    gens = [tuple(three)]
    if n > 3:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    return perm_group(gens, name=f"a{n}")

def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n."""
    if n < 3:
        raise GroupError("dihedral needs n >= 3")
    _check_order(2 * n, "permutation group")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return perm_group([rot, flip], name=f"d{n}")

_QUNITS = {  # (unit, unit) -> (sign, unit) for 1,i,j,k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}

def quaternion8() -> FiniteGroup:
    """Order 8: indices 0..7 are 1,-1,i,-i,j,-j,k,-k."""
    def enc(sign, unit):
        return unit * 2 + (0 if sign == 1 else 1)
    table = np.empty((8, 8), dtype=np.int32)
    for a in range(8):
        for b in range(8):
            sa, ua = (1 if a % 2 == 0 else -1), a // 2
            sb, ub = (1 if b % 2 == 0 else -1), b // 2
            s, u = _QUNITS[(ua, ub)]
            table[a, b] = enc(sa * sb * s, u)
    return FiniteGroup(table, name="q8", check=False)

def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    name = f"{a.name}x{b.name}"
    _check_order(a.n * b.n, f"group {name} of order {a.n * b.n}")
    nb = b.n
    table = (a.table[:, None, :, None].astype(np.int64) * nb
             + b.table[None, :, None, :]).reshape(a.n * nb, a.n * nb)
    return FiniteGroup(table.astype(np.int32), name=name, check=False)


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    src: FiniteGroup
    dst: FiniteGroup
    img: tuple

    def __post_init__(self):
        if len(self.img) != self.src.n:
            raise GroupError("image list length does not match source order")

    def __call__(self, a: int) -> int:
        return self.img[a]

    def is_surjective(self) -> bool:
        return len(set(self.img)) == self.dst.n

    def image_subgroup(self) -> tuple:
        return tuple(sorted(set(self.img)))

    def then(self, other: "GroupHom") -> "GroupHom":
        """self followed by other."""
        if other.src is not self.dst and other.src.n != self.dst.n:
            raise GroupError("composition mismatch")
        return GroupHom(self.src, other.dst, tuple(other.img[x] for x in self.img))

    def check(self) -> bool:
        return _respects_tables(self.src, self.dst, self.img)


def _respects_tables(src: FiniteGroup, dst: FiniteGroup, img) -> bool:
    """The full-table check: img[a b] == img[a] img[b] for every pair."""
    a = np.asarray(img, dtype=np.int32)
    return np.array_equal(dst.table[a][:, a], a[src.table])


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(range(g.n)))


def _bfs_expressions(g: FiniteGroup, gens):
    """Order the group so img extends incrementally from generator images.

    Returns (order, steps) where steps[i] = (elem, parent, gen_pos) and
    elem = parent * gens[gen_pos]; identity and the generators come first.
    """
    steps = []
    known = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, gen in enumerate(gens):
                y = int(g.table[x, gen])
                if y not in known:
                    known.add(y)
                    steps.append((y, x, pos))
                    nxt.append(y)
        frontier = nxt
    if len(known) != g.n:
        raise GroupError("generators do not generate")
    return steps


def _charge(ops: int, budget: int) -> None:
    if ops > budget:
        raise BudgetExceeded(
            f"homomorphism search needs ~{ops} operations, budget {budget}")


def _product_order_pairs(src, dst, gens, cands, dst_orders, injective):
    """The pairs (a, b) in cands[0] x cands[1], in row-major (iproduct's)
    order, that can be the images of gens[0] = g1 and gens[1] = g2.

    A homomorphism sends g1 g2 to a b and g1 g2^-1 to a b^-1, so ord(a b)
    divides ord(g1 g2) and ord(a b^-1) divides ord(g1 g2^-1); an injective
    one keeps both orders.  The pairs are screened a row block at a time."""
    g1, g2 = gens[0], gens[1]
    want = np.array([[src.order_of(src.mul(g1, g2))],
                     [src.order_of(src.mul(g1, src.inverse(g2)))]])
    orders = np.asarray(dst_orders)
    # fit[0][x]: x may be the image of g1 g2; fit[1][x]: of g1 g2^-1
    fit = orders == want if injective else want % orders == 0
    a, b = np.asarray(cands[0]), np.asarray(cands[1])
    b_inv = dst.inv[b]
    step = max(1, BLOCK_ENTRIES // len(b))
    pairs = []
    for lo in range(0, len(a), step):
        rows = a[lo:lo + step, None]
        i, j = np.nonzero(fit[0][dst.table[rows, b]]
                          & fit[1][dst.table[rows, b_inv]])
        pairs += zip(rows[i, 0].tolist(), b[j].tolist())
    return pairs


def enumerate_homs(src: FiniteGroup, dst: FiniteGroup, *, injective=False,
                   budget: Optional[int] = None):
    """Yield all homomorphisms src -> dst, in a deterministic order.

    Candidate generator images are filtered by element order (divisibility,
    or equality when injective), and with two or more generators the images
    of the first two by the orders of their product and quotient (see
    _product_order_pairs).  Each candidate is extended along the
    breadth-first tree of the Cayley graph and rejected at the first off-tree
    edge (x, gen) with img[x gen] != img[x] img[gen].  A survivor respects
    every edge: img[x gen] == img[x] img[gen] for all x and every generator,
    so by induction on the length of b as a word in the generators,
    img[x b] == img[x] img[b] for all x and b, and it is a homomorphism.

    The budget is checked before each phase: the pair screen costs one
    operation per candidate tuple, and the extension n * k per tuple that
    survives it, for k generators of a source of order n.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    gens = src.generating_set()
    if not gens:
        yield GroupHom(src, dst, tuple([dst.identity] * src.n))
        return
    dst_orders = dst.element_orders()
    cands = []
    for gen in gens:
        o = src.order_of(gen)
        if injective:
            ok = [d for d in range(dst.n) if dst_orders[d] == o]
        else:
            ok = [d for d in range(dst.n) if o % dst_orders[d] == 0]
        if not ok:
            return
        cands.append(ok)
    n, k = src.n, len(gens)
    if k == 1:
        choices, survivors = iproduct(*cands), len(cands[0])
    else:
        _charge(math.prod(len(c) for c in cands), budget)
        choices = _product_order_pairs(src, dst, gens, cands, dst_orders,
                                       injective)
        survivors = len(choices) * math.prod(len(c) for c in cands[2:])
        if k > 2:
            choices = (pair + rest for pair in choices
                       for rest in iproduct(*cands[2:]))
    _charge(survivors * n * k, budget)
    steps = _bfs_expressions(src, gens)
    sT = src.table.tolist()
    dT = dst.table.tolist()
    tree = {(parent, pos) for _, parent, pos in steps}
    edges = [(x, pos, sT[x][gen])
             for x in [src.identity] + [elem for elem, _, _ in steps]
             for pos, gen in enumerate(gens) if (x, pos) not in tree]
    for choice in choices:
        img = [dst.identity] * n
        for elem, parent, pos in steps:
            img[elem] = dT[img[parent]][choice[pos]]
        for x, pos, y in edges:
            if img[y] != dT[img[x]][choice[pos]]:
                break
        else:
            if injective and len(set(img)) != n:
                continue
            yield GroupHom(src, dst, tuple(img))


# -- automorphisms ------------------------------------------------------------

class AutGroup(FiniteGroup):
    """Automorphism group of `source`; element i is the map self.maps[i].

    The maps are the rows of one int32 array, and must be homomorphisms.  A
    homomorphism is fixed by its images of source.generating_set(), so each
    map is keyed by those k images alone.  Maps i then j send the generators
    to M[j][M[i][gens]]: the whole table is one gather of M at M[:, gens],
    an (|Aut|, |Aut|, k) array built a row block at a time, and one sorted
    lookup of its keys.
    """

    def __init__(self, source: FiniteGroup, maps):
        self.source = source
        self.maps = np.ascontiguousarray(maps, dtype=np.int32).reshape(
            -1, source.n)
        M = self.maps
        rows = np.sort(M.view(np.dtype((np.void, M.itemsize * source.n)))
                       .ravel())
        if np.any(rows[1:] == rows[:-1]):
            raise GroupError("automorphism list repeats a map")
        # the trivial group has no generators; its one map fixes the identity
        self._gens = list(source.generating_set()) or [source.identity]
        k = len(self._gens)
        # one opaque key per map's generator images, so they sort and match
        # as units
        self._key = np.dtype((np.void, M.itemsize * k))
        images = M[:, self._gens]
        keys = self._keys(images)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]
        same = np.flatnonzero(self._sorted[1:] == self._sorted[:-1])
        if len(same):
            i, j = sorted(self._order[same[0]:same[0] + 2].tolist())
            raise GroupError(f"maps {i} and {j} agree on the generators but "
                             f"differ, so they are not both homomorphisms")
        n = len(M)
        table = np.empty((n, n), dtype=np.int32)
        cols = np.arange(n)[:, None]
        step = max(1, BLOCK_ENTRIES // (n * k))
        for lo in range(0, n, step):
            # entry (i, j, c) is maps lo + i then j at generator c
            table[lo:lo + step] = self._index_of(
                M[cols, images[lo:lo + step, None, :]],
                lambda i, j: f"map {lo + i} then map {j}")
        super().__init__(table, name=f"aut({source.name})", check=False)

    def _keys(self, images) -> np.ndarray:
        return np.ascontiguousarray(images, dtype=np.int32).view(
            self._key)[..., 0]

    def _index_of(self, images, what) -> np.ndarray:
        """Index of the map with each row of generator images (the last
        axis).  Images of no map raise GroupError, naming the first such
        row, in row-major order, by what(*its index)."""
        keys = self._keys(images)
        pos = np.searchsorted(self._sorted, keys)
        pos[pos == len(self._sorted)] = 0
        hit = self._sorted[pos] == keys
        if not hit.all():
            at = np.unravel_index(int(np.argmin(hit)), hit.shape)
            raise GroupError(f"{what(*map(int, at))} is not among the maps")
        return self._order[pos]

    def _inner_rows(self, gs) -> np.ndarray:
        """Row k is conjugation by gs[k] on the generators,
        gen -> gs[k]^-1 gen gs[k]."""
        T, inv = self.source.table, self.source.inv
        gs = np.asarray(gs)
        return T[T[inv[gs]][:, self._gens], gs[:, None]]

    def inner_embedding(self) -> GroupHom:
        src = self.source
        idx = self._index_of(self._inner_rows(np.arange(src.n)),
                             lambda g: f"conjugation by {g}")
        return GroupHom(src, self, tuple(idx.tolist()))


def automorphism_group(g: FiniteGroup, *, budget: Optional[int] = None) -> AutGroup:
    maps = sorted(h.img for h in enumerate_homs(g, g, injective=True, budget=budget))
    return AutGroup(g, maps)


# -- the checks ---------------------------------------------------------------

@dataclass
class CompletenessReport:
    group: str
    ok: bool
    center_order: int
    aut_order: int
    outer_witness: Optional[int]  # index in the aut group of a non-inner map

def is_complete(g: FiniteGroup, *, budget: Optional[int] = None) -> CompletenessReport:
    center = g.center()
    aut = automorphism_group(g, budget=budget)
    inner = set(aut.inner_embedding().img)
    outer = next((i for i in range(aut.n) if i not in inner), None)
    ok = len(center) == 1 and outer is None
    return CompletenessReport(g.name, ok, len(center), aut.n, outer)


@dataclass
class SuitabilityReport:
    group: str
    ok: bool
    torsion: bool
    centerless: bool
    unique_copy: bool
    extends_inner: bool
    aut_order: int
    witness: Optional[str]

def is_suitable(h: FiniteGroup, *, budget: Optional[int] = None) -> SuitabilityReport:
    """Torsion, centerless, one isomorphic copy of itself inside its
    automorphism group (the inner one), and every automorphism of that copy
    induced by conjugation inside the automorphism group."""
    torsion = True  # finite means torsion
    center = h.center()
    centerless = len(center) == 1
    witness = None
    if not centerless:
        nontrivial = next(z for z in center if z != h.identity)
        witness = f"central element {nontrivial}"
        return SuitabilityReport(h.name, False, torsion, False, False, False, 0, witness)

    aut = automorphism_group(h, budget=budget)
    iota = aut.inner_embedding().img
    inner_set = tuple(sorted(set(iota)))

    unique_copy = True
    for hom in enumerate_homs(h, aut, injective=True, budget=budget):
        if hom.image_subgroup() != inner_set:
            unique_copy = False
            witness = f"embedding with image {hom.image_subgroup()} != inner copy"
            break

    # with "a then b" products, a^-1 iota(x) a = iota(a(x)) in Aut(h) for
    # every automorphism a and every x: conjugation by a itself induces a on
    # the inner copy, so no search is needed
    extends_inner = True

    ok = torsion and centerless and unique_copy and extends_inner
    return SuitabilityReport(h.name, ok, torsion, centerless, unique_copy,
                             extends_inner, aut.n, witness)


def h_socle(h: FiniteGroup, g: FiniteGroup, *, budget: Optional[int] = None) -> tuple:
    """Subgroup of g generated by the images of all homomorphisms h -> g."""
    gens: set[int] = set()
    for hom in enumerate_homs(h, g, budget=budget):
        gens.update(hom.img)
    return g.subgroup_closure(gens)


@dataclass
class LocalizationReport:
    ok: bool
    hom_count: int
    endo_count: int
    witness: Optional[str]

def is_localization(eta: GroupHom, *, budget: Optional[int] = None) -> LocalizationReport:
    """Does every map src -> dst factor uniquely through dst -> dst after eta?"""
    h, g = eta.src, eta.dst
    endos = list(enumerate_homs(g, g, budget=budget))
    homs = list(enumerate_homs(h, g, budget=budget))
    through = Counter(eta.then(e).img for e in endos)
    for phi in homs:
        k = through[phi.img]
        if k != 1:
            kind = "no extension" if not k else f"{k} extensions"
            return LocalizationReport(False, len(homs), len(endos),
                                      f"map with images {phi.img} has {kind}")
    return LocalizationReport(True, len(homs), len(endos), None)


# -- text format --------------------------------------------------------------

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int_row(lineno: int, line: str, what: str):
    try:
        return [int(v) for v in line.split()]
    except ValueError:
        raise GroupError(f"line {lineno}: {what} must be integers") from None


def parse_group_text(text: str) -> FiniteGroup:
    """group <name> / order <n> + table rows, or perms <k> + generator lines."""
    lines = list(_content_lines(text))
    if not lines or not lines[0][1].startswith("group"):
        raise GroupError("group text must start with 'group <name>'")
    first = lines[0][1]
    name = first.split(None, 1)[1].strip() if len(first.split()) > 1 else "G"
    pos = 1
    order = None
    if pos < len(lines) and lines[pos][1].startswith("order"):
        lineno, line = lines[pos]
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise GroupError(f"line {lineno}: order needs one integer")
        order = int(parts[1])
        pos += 1
    if pos >= len(lines):
        raise GroupError("missing table or perms section")
    headno, head = lines[pos]
    if head == "table":
        pos += 1
        if order is None:
            raise GroupError("table format needs an order line")
        rows = []
        for _ in range(order):
            if pos >= len(lines):
                raise GroupError(f"table needs {order} rows")
            lineno, line = lines[pos]
            row = _int_row(lineno, line, "table entries")
            if len(row) != order:
                raise GroupError(f"line {lineno}: table row has {len(row)} "
                                 f"entries, expected {order}")
            rows.append(row)
            pos += 1
        if pos != len(lines):
            raise GroupError(f"line {lines[pos][0]}: trailing content after "
                             f"table rows")
        return FiniteGroup(rows, name=name)
    if head.startswith("perms"):
        parts = head.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise GroupError(f"line {headno}: perms needs one integer width")
        k = int(parts[1])
        pos += 1
        gens = []
        while pos < len(lines):
            lineno, line = lines[pos]
            gen = tuple(_int_row(lineno, line, "permutation images"))
            if len(gen) != k:
                raise GroupError(f"line {lineno}: permutation line has "
                                 f"{len(gen)} images, expected {k}")
            if sorted(gen) != list(range(k)):
                raise GroupError(f"line {lineno}: not a permutation of "
                                 f"0..{k-1}: {gen}")
            gens.append(gen)
            pos += 1
        if not gens:
            raise GroupError("perms section needs at least one generator line")
        grp = perm_group(gens, name=name)
        if order is not None and grp.n != order:
            raise GroupError(f"declared order {order}, expansion found {grp.n}")
        return grp
    raise GroupError(f"line {headno}: expected 'table' or 'perms <k>', "
                     f"got {head!r}")

def load_group(path: str) -> FiniteGroup:
    """The group in a group file.  A path that cannot be read as text, a
    directory say, is a GroupError naming it, which a scheme or hom parser
    prefixes with its line."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GroupError(f"cannot read group file {path}: "
                         f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise GroupError(f"cannot read group file {path}: not UTF-8 "
                         f"text") from None
    return parse_group_text(text)

_BUILTINS = {
    "1": trivial, "triv": trivial, "q8": quaternion8,
}

def named_group(spec: str) -> FiniteGroup:
    """Resolve z<n>, s<n>, a<n>, d<n>, q8, products like s3xz2, or a file path."""
    key = spec.strip().lower()
    if "x" in key and not os.path.exists(spec):
        parts = key.split("x")
        try:
            groups = [named_group(p) for p in parts]
        except GroupError:
            groups = None
        if groups:
            acc = groups[0]
            for nxt in groups[1:]:
                acc = direct_product(acc, nxt)
            acc.name = key
            return acc
    if key in _BUILTINS:
        return _BUILTINS[key]()
    for prefix, builder in (("z", cyclic), ("c", cyclic), ("s", symmetric),
                            ("a", alternating), ("d", dihedral)):
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            return builder(int(key[len(prefix):]))
    if os.path.exists(spec):
        return load_group(spec)
    raise GroupError(f"unknown group {spec!r} (not a builtin name or file)")


def group_at(spec: str, base_dir: str) -> FiniteGroup:
    """The group a file in base_dir names: a path is taken relative to that
    file first."""
    cand = os.path.join(base_dir, spec)
    return named_group(cand if os.path.exists(cand) else spec)
