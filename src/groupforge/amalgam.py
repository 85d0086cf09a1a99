"""Tower groups: amalgamated products and stable-letter (HNN) extensions.

A tower is built from finite groups by repeatedly forming amalgamated free
products and HNN extensions.  Each tower node owns a registry interning the
canonical form of every element it has seen, so element equality at a node is
integer equality of registry indices, and factor elements of a compound node
are exactly the registry indices of that factor.

Both compound kinds glue along a bound pairing of two finite families of
factor elements, and one pairing spec serves both: `ExplicitShared` lists the
pairs, `CyclicShared` pairs the powers of two generators.  An amalgam pairs
its left factor's elements with its right factor's; an HNN letter pairs A (on
the left) with B (on the right), t^-1 a t = b.  Lifting a factor element and
carrying the distinguished copies up a node are defined once, on `Node`, and
each node kind answers `cyclic_core`, the conjugate relator systems match.

Normal forms follow the usual coset-transversal scheme.  A reduced word in an
amalgamated product has no syllable in the shared subgroup (once it is longer
than one syllable) and strictly alternates factors; the canonical form then
rewrites every syllable after the first to a fixed coset representative,
pushing carries leftward.  For an HNN extension, reduction removes pinches
t^-1 a t (a in the associated subgroup A) and t b t^-1 (b in B), and the
canonical form rewrites the base element after each stable letter to a fixed
coset representative of A (after t^-1) or B (after t).

A canonical form is a reduced form, so both carry the node's tag
(words.Reduced) and are never validated again there.  Every product of tower
words -- `mul_elem`, `mul_words`, `conjugate_word` -- splices reduced parts
and pushes only at their junctions (`Node.splice`).

Coset representatives are chosen by a structural word order (length, then
lexicographic on syllable tuples) so they do not depend on registry insertion
order.  Cyclic shared subgroups with an infinite-order generator are explored
through a +-window of powers; whenever a representative choice lands on the
window edge the operation raises instead of silently truncating.  Both node
kinds share one coset scan, memoised per node by (side, element); an edge hit
is never memoised, so it raises on every call.  One helper picks the least
candidate for every scan, the relator systems' syllable classes included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fingrp
from . import words as W
from .fingrp import FiniteGroup
from .words import EMPTY, FACTOR, LETTER, Reduced, SyllableWord

INFINITE = math.inf
# highest power of x and of a candidate compared when the centralizer check
# looks for a shared power of an infinite-order x
POWER_BOUND = 8


class SchemeError(Exception):
    pass


_letter_counter = itertools.count(1)

def fresh_letter() -> int:
    return next(_letter_counter)


# node serial numbers, never reused: a reduced word's tag (words.Reduced)
_serials = itertools.count(1)


class _FactorOps:
    """words.FactorOps view of a node's immediate factors."""

    def __init__(self, factors):
        self.factors = factors

    def mul(self, f, a, b):
        return self.factors[f].mul_elem(a, b)

    def inv(self, f, a):
        return self.factors[f].inv_elem(a)

    def is_identity(self, f, a):
        return self.factors[f].is_identity_elem(a)


# -- pairing specifications (either node kind) -----------------------------------

@dataclass
class ExplicitShared:
    """Parallel element lists: left[i] is identified with right[i]."""
    left: list
    right: list

@dataclass
class CyclicShared:
    """Identify the cyclic subgroups generated on each side."""
    left_gen: int
    right_gen: int
    window: int = 16


class _BoundPairs:
    """A bound bijection between two finite families of factor elements.

    sides are 0 and 1; pairs[k] = (elem on side 0, elem on side 1).  For a
    cyclic specification with an infinite-order generator the families are the
    powers within the window, and `edge` marks the outermost ones.
    """

    def __init__(self, pairs, edge=()):
        self.pairs = pairs
        self._edge = set(edge)
        self._maps = ({}, {})
        for k, (l, r) in enumerate(pairs):
            self._maps[0][l] = k
            self._maps[1][r] = k
        if len(self._maps[0]) != len(pairs) or len(self._maps[1]) != len(pairs):
            raise SchemeError("shared element lists contain collisions")

    def member(self, side, elem) -> bool:
        return elem in self._maps[side]

    def convert(self, side, elem):
        k = self._maps[side][elem]
        return self.pairs[k][1 - side]

    def scan(self, side):
        """Yield (subgroup element on side, at_window_edge)."""
        for k, p in enumerate(self.pairs):
            yield p[side], k in self._edge


def _powers(node, gen, lo, hi):
    """dict exponent -> element for gen^k, lo <= k <= hi."""
    out = {0: node.identity_elem()}
    inv = node.inv_elem(gen)
    acc = node.identity_elem()
    for k in range(1, hi + 1):
        acc = node.mul_elem(acc, gen)
        out[k] = acc
    acc = node.identity_elem()
    for k in range(1, -lo + 1):
        acc = node.mul_elem(acc, inv)
        out[-k] = acc
    return out


def _check_elems(what: str, node: "Node", elems):
    for e in elems:
        if not node.valid_elem(e):
            raise SchemeError(f"{what}: element index {e} unknown at "
                              f"{node.name}")


def _bind_pairs(spec, side0: "Node", side1: "Node", what: str) -> _BoundPairs:
    if isinstance(spec, ExplicitShared):
        left, right = list(spec.left), list(spec.right)
        _check_elems(what, side0, left)
        _check_elems(what, side1, right)
        if len(left) != len(right):
            raise SchemeError(f"{what}: element lists have different lengths")
        if not left:
            raise SchemeError(f"{what}: element lists are empty")
        l2r = dict(zip(left, right))
        if len(l2r) != len(left):
            raise SchemeError(f"{what}: repeated element on the left side")
        for i in range(len(left)):
            for j in range(len(left)):
                p = side0.mul_elem(left[i], left[j])
                if p not in l2r:
                    raise SchemeError(
                        f"{what}: left list is not closed under multiplication")
                if l2r[p] != side1.mul_elem(right[i], right[j]):
                    raise SchemeError(
                        f"{what}: pairing is not a homomorphism")
        return _BoundPairs(list(zip(left, right)))
    if isinstance(spec, CyclicShared):
        g0, g1 = spec.left_gen, spec.right_gen
        _check_elems(what, side0, [g0])
        _check_elems(what, side1, [g1])
        w = spec.window
        o0 = side0.elem_order(g0)
        o1 = side1.elem_order(g1)
        if o0 != o1:
            raise SchemeError(
                f"{what}: generator orders differ ({o0} vs {o1})")
        if o0 == INFINITE:
            p0 = _powers(side0, g0, -w, w)
            p1 = _powers(side1, g1, -w, w)
            ks = sorted(p0)
            pairs = [(p0[k], p1[k]) for k in ks]
            edge = [i for i, k in enumerate(ks) if abs(k) == w]
            return _BoundPairs(pairs, edge)
        n = int(o0)
        p0 = _powers(side0, g0, 0, n - 1)
        p1 = _powers(side1, g1, 0, n - 1)
        return _BoundPairs([(p0[k], p1[k]) for k in range(n)])
    raise SchemeError(f"{what}: unknown specification {spec!r}")


# -- nodes ---------------------------------------------------------------------

class Node:
    """A group in the tower.  Elements are indices into the node registry."""

    kind = "node"

    def __init__(self, name: str):
        self.name = name
        self.serial = next(_serials)
        self.h_group: Optional[FiniteGroup] = None
        self.distinguished: dict = {}
        self._rwords: list = [EMPTY]
        self._rindex: dict = {EMPTY: 0}
        self._cosets: dict = {}

    def __repr__(self):
        return f"<{self.kind} {self.name}>"

    @property
    def factors(self):
        raise NotImplementedError

    # registry

    def intern(self, w) -> int:
        c = self.canonical(w)
        idx = self._rindex.get(c)
        if idx is None:
            idx = len(self._rwords)
            self._rwords.append(c)
            self._rindex[c] = idx
        return idx

    def elem_word(self, i: int) -> SyllableWord:
        return self._rwords[i]

    def elem_key(self, i: int):
        w = self._rwords[i]
        return (len(w), tuple(w))

    def elem_count(self) -> Optional[int]:
        return None  # infinite

    def valid_elem(self, i) -> bool:
        return 0 <= i < len(self._rwords)

    def identity_elem(self) -> int:
        return 0

    def is_identity_elem(self, i) -> bool:
        return i == self.identity_elem()

    def mul_elem(self, a: int, b: int) -> int:
        return self.intern(self.mul_words(self.elem_word(a), self.elem_word(b)))

    def inv_elem(self, a: int) -> int:
        return self.intern(W.invert(self.elem_word(a), self.ops))

    def elem_order(self, i: int):
        return self.order_of(self.elem_word(i))

    def lift(self, side: int, elem: int) -> int:
        """Element `elem` of the factor on `side`, at this node."""
        return self.intern(SyllableWord([(FACTOR, side, elem)]))

    # words

    @property
    def ops(self):
        return self._ops

    def reduce(self, w) -> SyllableWord:
        raise NotImplementedError

    def _holds(self, w) -> bool:
        """w carries this node's reduced tag."""
        return type(w) is Reduced and w.at == self.serial

    def splice(self, left, mid, *rights) -> Reduced:
        """The reduced form of left . mid . rights[0] . rights[1] ..., for
        left and each right reduced at this node or contiguous parts of
        words reduced here.

        left is copied and mid pushed onto it.  Each right in turn is pushed
        only until one of its syllables of a kind in `_settling` is appended
        unchanged; the rest of that right then appends unchanged, so it is
        copied.
        """
        out = list(left)
        push = self._push
        for syl in mid:
            push(out, syl)
        settling = self._settling
        for right in rights:
            for i, syl in enumerate(right):
                if push(out, syl) and syl[0] in settling:
                    out.extend(right[i + 1:])
                    break
        return W.reduced(out, self.serial)

    def canonical(self, w) -> SyllableWord:
        raise NotImplementedError

    def cyclic_core(self, w) -> SyllableWord:
        """A reduced conjugate of w that no cyclic permutation shortens."""
        return self.reduce(w)

    def order_of(self, w):
        raise NotImplementedError

    def equal(self, u, v) -> bool:
        return self.canonical(u) == self.canonical(v)

    def mul_words(self, u, v) -> SyllableWord:
        return self.splice(self.reduce(u), EMPTY, self.reduce(v))

    def invert_word(self, w) -> SyllableWord:
        return W.invert(w, self.ops)

    def conjugate_word(self, w, by) -> SyllableWord:
        """by^-1 . w . by, reduced."""
        by = self.reduce(by)
        return self.splice(self.invert_word(by), EMPTY, self.reduce(w), by)

    def parse(self, text: str) -> SyllableWord:
        w = W.parse_word(text)
        self.validate_word(w)
        return w

    def format(self, w) -> str:
        return W.format_word(w)

    def validate_word(self, w):
        raise NotImplementedError

    # compound nodes: a bound pairing and coset representatives (they also
    # set _edge_what)

    def _bind(self, spec, side0: "Node", side1: "Node", what: str):
        """Bind the pairing spec between elements of side0 (its left) and
        side1 (its right), and carry the first factor's distinguished
        copies up to this node."""
        self._bound = _bind_pairs(spec, side0, side1, f"{self.name} {what}")
        self._coset_factors = (side0, side1)
        for side, src in enumerate(self.factors):
            if src.h_group is not None:
                self.h_group = src.h_group
                self.distinguished = {
                    k: [self.lift(side, e) for e in v]
                    for k, v in src.distinguished.items()}
                return

    def _least(self, side, candidates, edge_error: str):
        """The structurally least of the (element, at_window_edge, ...)
        candidates, elements of the factor on `side`; the first one on ties.
        Raises SchemeError(edge_error) when it lies on the window edge."""
        key = self._coset_factors[side].elem_key
        best = min(candidates, key=lambda c: key(c[0]))
        if best[1]:
            raise SchemeError(edge_error)
        return best

    def _coset_data(self, side, elem):
        """elem = carry . rep with carry in the bound subgroup on `side` and
        rep the structurally least element of its right coset.

        Registry indices never change, so the answer is memoised per
        (side, elem); a scan that lands on the window edge is not memoised
        and raises on every call."""
        got = self._cosets.get((side, elem))
        if got is not None:
            return got
        fac = self._coset_factors[side]
        rep, _, s_elem = self._least(
            side, ((fac.mul_elem(s, elem), at_edge, s)
                   for s, at_edge in self._bound.scan(side)),
            f"{self.name}: coset representative fell on the "
            f"{self._edge_what} edge; rerun with a larger window")
        got = (rep, fac.inv_elem(s_elem))
        self._cosets[(side, elem)] = got
        return got


class BaseNode(Node):
    """Tower leaf wrapping a finite group; elements are group indices."""

    kind = "base"

    def __init__(self, group: FiniteGroup, name: Optional[str] = None):
        super().__init__(name or group.name)
        self.group = group
        self._ops = _FactorOps((self,))

    @property
    def factors(self):
        return (self,)

    def intern(self, w) -> int:
        r = self.reduce(w)
        return self.group.identity if not r else r[0][2]

    def elem_word(self, i: int) -> SyllableWord:
        if i == self.group.identity:
            return EMPTY
        return SyllableWord([(FACTOR, 0, i)])

    def elem_key(self, i: int):
        w = self.elem_word(i)
        return (len(w), tuple(w))

    def elem_count(self):
        return self.group.n

    def valid_elem(self, i) -> bool:
        return 0 <= i < self.group.n

    def identity_elem(self) -> int:
        return self.group.identity

    def mul_elem(self, a, b):
        return self.group.mul(a, b)

    def inv_elem(self, a):
        return self.group.inverse(a)

    def elem_order(self, i):
        return self.group.order_of(i)

    def validate_word(self, w):
        for syl in w:
            if syl[0] != FACTOR or syl[1] != 0:
                raise SchemeError(
                    f"{self.name}: words over a base group use f0 syllables only")
            if not self.valid_elem(syl[2]):
                raise SchemeError(f"{self.name}: element index {syl[2]} out of range")

    def reduce(self, w) -> SyllableWord:
        self.validate_word(w)
        acc = self.group.identity
        for syl in w:
            acc = self.group.mul(acc, syl[2])
        return self.elem_word(acc)

    def canonical(self, w) -> SyllableWord:
        return self.reduce(w)

    # a reduced word is one syllable at most, and each push multiplies into it
    _settling = ()

    def _push(self, out, syl) -> bool:
        acc = self.group.mul(out.pop()[2], syl[2]) if out else syl[2]
        if acc != self.group.identity:
            out.append((FACTOR, 0, acc))
        return False

    def order_of(self, w):
        return self.group.order_of(self.intern(w))


class AmalgamNode(Node):
    """Free product of two tower nodes amalgamated over a shared subgroup."""

    kind = "amalgam"
    _edge_what = "shared-window"

    def __init__(self, left: Node, right: Node, shared, name: Optional[str] = None):
        super().__init__(name or f"({left.name}*{right.name})")
        self.left = left
        self.right = right
        self._ops = _FactorOps((left, right))
        self._bind(shared, left, right, "shared subgroup")
        self._shared = self._bound  # the name the benchmark reads

    @property
    def factors(self):
        return (self.left, self.right)

    def validate_word(self, w):
        for syl in w:
            if syl[0] != FACTOR:
                raise SchemeError(
                    f"{self.name}: amalgamated-product words have no stable letters")
            if syl[1] not in (0, 1):
                raise SchemeError(f"{self.name}: factor id must be 0 or 1")
            if not self.factors[syl[1]].valid_elem(syl[2]):
                raise SchemeError(
                    f"{self.name}: element index {syl[2]} unknown in factor {syl[1]}")

    def reduce(self, w) -> SyllableWord:
        """Minimal-length form: factors alternate and, beyond length one, no
        syllable lies in the shared subgroup.  A word this node reduced is
        returned as it is."""
        if self._holds(w):
            return w
        self.validate_word(w)
        return self.splice(EMPTY, w)

    # once a syllable of a reduced word appends unchanged, the next one is on
    # the other side and outside the shared subgroup, so it appends too
    _settling = (FACTOR,)

    def _push(self, out, syl) -> bool:
        """Push one syllable onto the reduced list `out`; True when it is
        appended as it came, with nothing merged or popped."""
        came = syl
        while True:
            side, elem = syl[1], syl[2]
            fac = self.factors[side]
            if fac.is_identity_elem(elem):
                return False
            if out and out[-1][1] == side:
                prev = out.pop()
                syl = (FACTOR, side, fac.mul_elem(prev[2], elem))
                continue
            if out and self._bound.member(out[-1][1], out[-1][2]):
                # pull a stranded shared syllable over to this side
                prev = out.pop()
                conv = self._bound.convert(prev[1], prev[2])
                syl = (FACTOR, side, fac.mul_elem(conv, elem))
                continue
            if out and self._bound.member(side, elem):
                prev = out.pop()
                oside = prev[1]
                conv = self._bound.convert(side, elem)
                syl = (FACTOR, oside, self.factors[oside].mul_elem(prev[2], conv))
                continue
            out.append(syl)
            return syl is came

    def canonical(self, w) -> SyllableWord:
        r = self.reduce(w)
        if len(r) <= 1:
            # single shared syllables live on the left by convention
            if r and r[0][1] == 1 and self._bound.member(1, r[0][2]):
                conv = self._bound.convert(1, r[0][2])
                return W.reduced([(FACTOR, 0, conv)], self.serial)
            return r
        syls = list(r)
        for i in range(len(syls) - 1, 0, -1):
            side, elem = syls[i][1], syls[i][2]
            rep, carry = self._coset_data(side, elem)
            if self.factors[side].is_identity_elem(carry):
                continue
            syls[i] = (FACTOR, side, rep)
            conv = self._bound.convert(side, carry)
            oside = 1 - side
            merged = self.factors[oside].mul_elem(syls[i - 1][2], conv)
            # merged is neither trivial nor shared: its shared part would
            # push back into syls[i - 1], contradicting reducedness
            syls[i - 1] = (FACTOR, oside, merged)
        return W.reduced(syls, self.serial)

    def order_of(self, w):
        core, _ = self.weakly_cyclic_reduce(w)
        if len(core) >= 2:
            return INFINITE
        if not core:
            return 1
        return self.factors[core[0][1]].elem_order(core[0][2])

    def _ends_merge(self, r) -> bool:
        """The reduced word r has two or more syllables and its last and
        first multiply to 1 or into the shared subgroup, so a cyclic
        permutation shortens it."""
        if len(r) < 2 or r[0][1] != r[-1][1]:
            return False
        side = r[0][1]
        fac = self.factors[side]
        prod = fac.mul_elem(r[-1][2], r[0][2])
        return fac.is_identity_elem(prod) or self._bound.member(side, prod)

    def is_weakly_cyclically_reduced(self, w) -> bool:
        return not self._ends_merge(self.reduce(w))

    def cyclic_core(self, w) -> SyllableWord:
        return self.weakly_cyclic_reduce(w)[0]

    def weakly_cyclic_reduce(self, w):
        """Return (core, conj) with w = conj^-1 . core . conj and core
        weakly cyclically reduced."""
        cur = self.reduce(w)
        conj = EMPTY
        while self._ends_merge(cur):
            # first^-1 . cur . first: cur[0] cancels, and cur[-1] cur[0] is
            # one syllable pushed onto the untouched middle
            side = cur[0][1]
            merged = (FACTOR, side,
                      self.factors[side].mul_elem(cur[-1][2], cur[0][2]))
            conj = self.mul_words(self.invert_word(SyllableWord(cur[:1])),
                                  conj)
            cur = self.splice(cur[1:-1], (merged,))
        return cur, conj


class HnnNode(Node):
    """HNN extension of a tower node: t^-1 a t = phi(a) for a in A."""

    kind = "hnn"
    _edge_what = "associated-subgroup window"

    def __init__(self, base: Node, assoc, name: Optional[str] = None):
        super().__init__(name or f"{base.name}*t")
        self.base = base
        self.letter = fresh_letter()
        self._ops = _FactorOps((base,))
        self._bind(assoc, base, base, "associated subgroups")

    @property
    def factors(self):
        return (self.base,)

    def letter_word(self) -> SyllableWord:
        return SyllableWord([(LETTER, self.letter, 1)])

    def validate_word(self, w):
        for syl in w:
            if syl[0] == LETTER:
                if syl[1] != self.letter:
                    raise SchemeError(
                        f"{self.name}: unknown stable letter t{syl[1]} "
                        f"(this extension uses t{self.letter})")
            elif syl[1] != 0 or not self.base.valid_elem(syl[2]):
                raise SchemeError(
                    f"{self.name}: bad base syllable {W.format_word([syl])}")

    # side 0 of the bound pairing is A (rewritten after t^-1),
    # side 1 is B (rewritten after t)

    def reduce(self, w) -> SyllableWord:
        """Britton-reduced form: no pinch t^-1 a t (a in A) or t b t^-1 (b in
        B).  A word this node reduced is returned as it is."""
        if self._holds(w):
            return w
        self.validate_word(w)
        return self.splice(EMPTY, w)

    # a base syllable appended unchanged can still pinch with the letter
    # after it; a stable letter appended unchanged ends every pinch
    _settling = (LETTER,)

    def _push(self, out, syl) -> bool:
        """Push one syllable onto the reduced list `out`; True when it is
        appended as it came, with nothing merged or popped."""
        base = self.base
        came = syl
        while True:
            if syl[0] == FACTOR:
                if base.is_identity_elem(syl[2]):
                    return False
                if out and out[-1][0] == FACTOR:
                    prev = out.pop()
                    syl = (FACTOR, 0, base.mul_elem(prev[2], syl[2]))
                    continue
                out.append(syl)
                return syl is came
            sign = syl[2]
            if out and out[-1][0] == LETTER and out[-1][2] == -sign:
                out.pop()
                return False
            if (len(out) >= 2 and out[-1][0] == FACTOR
                    and out[-2][0] == LETTER and out[-2][2] == -sign):
                side = 0 if sign == 1 else 1  # t^-1 a t needs a in A
                if self._bound.member(side, out[-1][2]):
                    elem = out.pop()[2]
                    out.pop()
                    syl = (FACTOR, 0, self._bound.convert(side, elem))
                    continue
            out.append(syl)
            return syl is came

    def canonical(self, w) -> SyllableWord:
        r = self.reduce(w)
        positions = [p for p, s in enumerate(r) if s[0] == LETTER]
        if not positions:
            return r
        base = self.base
        syls = list(r)
        for p in reversed(positions):
            sign = syls[p][2]
            side = 0 if sign == -1 else 1  # A-cosets after t^-1, B after t
            if p + 1 < len(syls) and syls[p + 1][0] == FACTOR:
                g = syls[p + 1][2]
                gpos = p + 1
            else:
                g = base.identity_elem()
                gpos = None
            rep, carry = self._coset_data(side, g)
            if base.is_identity_elem(carry):
                continue
            if gpos is not None:
                if base.is_identity_elem(rep):
                    del syls[gpos]
                else:
                    syls[gpos] = (FACTOR, 0, rep)
            elif not base.is_identity_elem(rep):
                syls.insert(p + 1, (FACTOR, 0, rep))
            cross = self._bound.convert(side, carry)
            if p - 1 >= 0 and syls[p - 1][0] == FACTOR:
                merged = base.mul_elem(syls[p - 1][2], cross)
                if base.is_identity_elem(merged):
                    # cannot re-pinch: the merged carry lies in the subgroup
                    # matching the letter on its left only if the original
                    # word already had a pinch there
                    del syls[p - 1]
                else:
                    syls[p - 1] = (FACTOR, 0, merged)
            else:
                syls.insert(p, (FACTOR, 0, cross))
        return W.reduced(syls, self.serial)

    def cyclic_core(self, w) -> SyllableWord:
        """A conjugate of w with minimal stable-letter count, reduced (cyclic
        Britton reduction).  Each rotation pushes the first syllable onto
        the rest, a contiguous part of the reduced word."""
        cur = self.reduce(w)
        while True:
            letters = [p for p, s in enumerate(cur) if s[0] == LETTER]
            if not letters:
                return cur
            if cur[0][0] == FACTOR:
                cur = self.splice(cur[1:], cur[:1])
                continue
            e1 = cur[0][2]
            lastpos = letters[-1]
            e_last = cur[lastpos][2]
            if e_last == -e1:
                if lastpos + 1 < len(cur):
                    tail = cur[lastpos + 1][2]
                else:
                    tail = self.base.identity_elem()
                side = 0 if e_last == -1 else 1
                if self.base.is_identity_elem(tail) or self._bound.member(side, tail):
                    # wrap-around pinch: rotate the first letter to the end
                    cur = self.splice(cur[1:], cur[:1])
                    continue
            return cur

    def order_of(self, w):
        cur = self.cyclic_core(w)
        if any(s[0] == LETTER for s in cur):
            return INFINITE
        return self.base.elem_order(self.base.intern(cur))


def shared_pairing(node: Node) -> Optional[_BoundPairs]:
    """An amalgam's shared-subgroup pairing, up to which its syllables
    compare; None at any other node, whose syllables compare exactly."""
    return node._bound if isinstance(node, AmalgamNode) else None


# -- operations on towers -------------------------------------------------------

@dataclass
class TorsionEmbedding:
    side: Optional[int]   # None when the element is trivial
    elem: int
    conj: SyllableWord    # w = conj^-1 . factor-elem . conj
    order: int


def conjugate_torsion_into_factor(node: AmalgamNode, w) -> TorsionEmbedding:
    core, conj = node.weakly_cyclic_reduce(w)
    if len(core) >= 2:
        raise SchemeError("element has infinite order; it is not conjugate "
                          "into a factor")
    if not core:
        return TorsionEmbedding(None, 0, conj, 1)
    side, elem = core[0][1], core[0][2]
    order = node.factors[side].elem_order(elem)
    if order == INFINITE:
        raise SchemeError("element has infinite order inside its factor")
    return TorsionEmbedding(side, elem, conj, int(order))


@dataclass
class CentralizerEntry:
    word: str
    commutes: bool
    consistent: bool
    note: str


@dataclass
class CentralizerCheck:
    x_class: str          # identity, torsion or infinite
    ok: bool
    entries: list


def centralizer_conclusion_check(node: Node, x_word,
                                 cand_words) -> CentralizerCheck:
    """Check the centralizer dichotomy against candidate elements.

    Torsion elements conjugate into a factor, and their commuting candidates
    must follow them there; commuting candidates of an infinite-order element
    must share a power with it.
    """
    x = node.reduce(x_word)
    order = node.order_of(x)
    if not x:
        x_class = "identity"
    elif order == INFINITE:
        x_class = "infinite"
    else:
        x_class = "torsion"
    te = None
    if x_class == "torsion" and isinstance(node, AmalgamNode):
        te = conjugate_torsion_into_factor(node, x)
    entries = []
    ok = True
    for cw in cand_words:
        c = node.reduce(cw)
        commutes = node.equal(node.mul_words(x, c), node.mul_words(c, x))
        if not commutes:
            entries.append(CentralizerEntry(node.format(c), False, True,
                                            "does not commute"))
            continue
        if x_class == "identity":
            entries.append(CentralizerEntry(node.format(c), True, True,
                                            "identity centralizes everything"))
            continue
        if x_class == "torsion" and te is not None and te.side is not None:
            if node._bound.member(te.side, te.elem):
                entries.append(CentralizerEntry(
                    node.format(c), True, True,
                    "torsion part lies in the shared subgroup; no factor "
                    "constraint applies"))
                continue
            moved = node.conjugate_word(c, node.invert_word(te.conj))
            fits = len(moved) <= 1 and (not moved or moved[0][1] == te.side
                                        or node._bound.member(moved[0][1],
                                                              moved[0][2]))
            if not fits:
                ok = False
            entries.append(CentralizerEntry(
                node.format(c), True, fits,
                "follows x into its factor" if fits
                else "commutes but does not lie in the factor with x"))
            continue
        # infinite order: look for a shared power
        found = None
        xp = {}
        acc = EMPTY
        for m in range(1, POWER_BOUND + 1):
            acc = node.mul_words(acc, x)
            xp[m] = node.canonical(acc)
        acc = EMPTY
        for k in range(1, POWER_BOUND + 1):
            acc = node.mul_words(acc, c)
            ck = node.canonical(acc)
            for m, xm in xp.items():
                if ck == xm or ck == node.canonical(node.invert_word(xm)):
                    found = (k, m)
                    break
            if found:
                break
        if found is None:
            ok = False
            entries.append(CentralizerEntry(
                node.format(c), True, False,
                f"no shared power up to exponent {POWER_BOUND}"))
        else:
            entries.append(CentralizerEntry(
                node.format(c), True, True,
                f"c^{found[0]} equals x^+-{found[1]}"))
    return CentralizerCheck(x_class, ok, entries)


def subgroup_table(node: Node, elems) -> FiniteGroup:
    """Multiplication table of a finite list of node elements; the list must
    be closed.  Index i of the table is elems[i]."""
    elems = list(elems)
    pos = {}
    for i, e in enumerate(elems):
        if e in pos:
            raise SchemeError(f"repeated element {e} in subgroup list")
        pos[e] = i
    n = len(elems)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            p = node.mul_elem(elems[i], elems[j])
            if p not in pos:
                raise SchemeError(
                    f"subgroup list is not closed: element {elems[i]} * "
                    f"{elems[j]} falls outside it")
            table[i, j] = pos[p]
    return FiniteGroup(table, name=f"sub{n}@{node.name}")


def hat_base(h: FiniteGroup, *, name: Optional[str] = None,
             budget: Optional[int] = None) -> BaseNode:
    """Leaf holding the automorphism group of h, with the inner copy of h and
    the full group tracked as distinguished subgroups."""
    aut = fingrp.automorphism_group(h, budget=budget)
    node = BaseNode(aut, name=name or f"hat-{h.name}")
    node.h_group = h
    inner = sorted(set(aut.inner_embedding().img))
    if len(inner) != h.n:
        raise SchemeError(f"{h.name} has a nontrivial center; its inner copy "
                          f"is not faithful")
    node.distinguished = {"hat": list(range(aut.n)), "h": inner}
    return node


@dataclass
class IsoRealization:
    node: "HnnNode"        # tower with both stable letters added
    mid: "HnnNode"
    conj: SyllableWord     # c with c^-1 a c = phi(a) for all a in A
    letters: tuple
    hat_conjugator: int    # the element of the distinguished copy used


def realize_iso_by_hnn(node: Node, a_elems, b_elems, a_hat, b_hat,
                       *, phi_pairs=None,
                       budget: Optional[int] = None) -> IsoRealization:
    """Make an isomorphism A -> B inner.

    A and B must be copies of the tower's distinguished suitable group, and
    a_hat, b_hat copies of its full automorphism-group overgroup containing
    them.  Two stable letters identify the distinguished overgroup with each
    hat; the isomorphism is then realized by t1^-1 g t2 for a suitable g
    inside the distinguished overgroup.
    """
    _check_elems("A", node, a_elems)
    _check_elems("B", node, b_elems)
    _check_elems("first hat", node, a_hat)
    _check_elems("second hat", node, b_hat)
    if phi_pairs is not None:
        _check_elems("isomorphism pairs", node,
                     [e for pair in phi_pairs for e in pair])
    if "hat" not in node.distinguished or "h" not in node.distinguished:
        raise SchemeError("tower has no distinguished overgroup; build its "
                          "leaf with hat_base")
    hat_elems = node.distinguished["hat"]
    h_elems = node.distinguished["h"]
    t_hat = subgroup_table(node, hat_elems)
    t_ahat = subgroup_table(node, a_hat)
    t_bhat = subgroup_table(node, b_hat)

    f1 = next(fingrp.enumerate_homs(t_hat, t_ahat, injective=True,
                                    budget=budget), None)
    if f1 is None or not f1.is_surjective():
        raise SchemeError("first hat subgroup is not isomorphic to the "
                          "distinguished overgroup")
    f2 = next(fingrp.enumerate_homs(t_hat, t_bhat, injective=True,
                                    budget=budget), None)
    if f2 is None or not f2.is_surjective():
        raise SchemeError("second hat subgroup is not isomorphic to the "
                          "distinguished overgroup")
    f1map = {hat_elems[i]: a_hat[f1.img[i]] for i in range(len(hat_elems))}
    f2map = {hat_elems[i]: b_hat[f2.img[i]] for i in range(len(hat_elems))}

    a_set, b_set = set(a_elems), set(b_elems)
    if phi_pairs is None:
        t_a = subgroup_table(node, list(a_elems))
        t_b = subgroup_table(node, list(b_elems))
        iso = next(fingrp.enumerate_homs(t_a, t_b, injective=True,
                                         budget=budget), None)
        if iso is None or not iso.is_surjective():
            raise SchemeError("the two subgroups are not isomorphic")
        phi_map = {list(a_elems)[i]: list(b_elems)[iso.img[i]]
                   for i in range(len(list(a_elems)))}
    else:
        phi_map = dict(phi_pairs)
        if set(phi_map) != a_set or set(phi_map.values()) != b_set:
            raise SchemeError("isomorphism pairs do not match the subgroups")

    # the unique suitable copy inside each hat is the image of the
    # distinguished copy, so it must coincide with A resp. B
    if {f1map[h] for h in h_elems} != a_set:
        raise SchemeError("A is not the suitable copy inside its hat")
    if {f2map[h] for h in h_elems} != b_set:
        raise SchemeError("B is not the suitable copy inside its hat")

    f2inv = {v: k for k, v in f2map.items()}
    psi = {h: f2inv[phi_map[f1map[h]]] for h in h_elems}

    hat_pos = {e: i for i, e in enumerate(hat_elems)}
    g = None
    for cand in hat_elems:
        cp = hat_pos[cand]
        if all(t_hat.conj(hat_pos[h], cp) == hat_pos[psi[h]] for h in h_elems):
            g = cand
            break
    if g is None:
        raise SchemeError("no element of the distinguished overgroup induces "
                          "the required twist; is the tracked copy suitable?")

    n1 = HnnNode(node, ExplicitShared(list(hat_elems),
                                      [f1map[e] for e in hat_elems]),
                 name=node.name + "+iso1")
    n2 = HnnNode(n1, ExplicitShared([n1.lift(0, e) for e in hat_elems],
                                    [n1.lift(0, f2map[e]) for e in hat_elems]),
                 name=node.name + "+iso2")

    u = n1.intern(SyllableWord([(LETTER, n1.letter, -1), (FACTOR, 0, g)]))
    conj = SyllableWord([(FACTOR, 0, u), (LETTER, n2.letter, 1)])

    lift2 = lambda e: n2.lift(0, n1.lift(0, e))
    for a in a_elems:
        got = n2.conjugate_word(SyllableWord([(FACTOR, 0, lift2(a))]), conj)
        want = n2.elem_word(lift2(phi_map[a]))
        if n2.canonical(got) != n2.canonical(want):
            raise SchemeError("internal check failed: conjugator does not "
                              "realize the isomorphism")
    return IsoRealization(n2, n1, conj, (n1.letter, n2.letter), g)


def make_conjugate(node: Node, u_word, v_word, *, window: int = 16):
    """Extend the tower by a stable letter with t^-1 u t = v.  Legal exactly
    when u and v have the same order.  Returns (extension, t-word)."""
    ou = node.order_of(u_word)
    ov = node.order_of(v_word)
    if ou != ov:
        raise SchemeError(f"cannot conjugate elements of different orders "
                          f"({ou} vs {ov})")
    u = node.intern(u_word)
    v = node.intern(v_word)
    if node.is_identity_elem(u):
        return node, EMPTY
    ext = HnnNode(node, CyclicShared(u, v, window), name=f"{node.name}+conj")
    t = ext.letter_word()
    got = ext.conjugate_word(SyllableWord([(FACTOR, 0, u)]), t)
    if ext.canonical(got) != ext.canonical(SyllableWord([(FACTOR, 0, v)])):
        raise SchemeError("internal check failed: stable letter does not "
                          "conjugate u to v")
    return ext, t


@dataclass
class SocleRecord:
    node: Node
    elem: int              # witness element at the final tower node
    product: list          # [(copy name, element index at the final node)]
    layers: int


def _first_nontrivial(h: FiniteGroup) -> int:
    for i in range(h.n):
        if i != h.identity:
            return i
    raise SchemeError("the distinguished group is trivial")


def _adjoin_infinite_witness(node: Node, w, window: int, tag: str):
    """Amalgamate a free product of two fresh copies of the distinguished
    group over <w> = <h1 h2>, writing w as a two-factor socle product."""
    h = node.h_group
    c1 = BaseNode(h, name=f"{tag}.copy1")
    c2 = BaseNode(h, name=f"{tag}.copy2")
    free = AmalgamNode(c1, c2, ExplicitShared([h.identity], [h.identity]),
                       name=f"{tag}.free")
    x = _first_nontrivial(h)
    h1 = free.lift(0, x)
    h2 = free.lift(1, x)
    prod = free.mul_elem(h1, h2)
    ext = AmalgamNode(node, free, CyclicShared(node.intern(w), prod, window),
                      name=f"{node.name}+{tag}")
    welem = ext.lift(0, node.intern(w))
    p1 = ext.lift(1, h1)
    p2 = ext.lift(1, h2)
    if ext.mul_elem(p1, p2) != welem:
        raise SchemeError("internal check failed: socle factors do not "
                          "multiply to the witness")
    return ext, SocleRecord(ext, welem, [(c1.name, p1), (c2.name, p2)], 1)


def adjoin_socle_witness(node: Node, w, *, window: int = 16):
    """Extend the tower so the element w becomes a product of elements of
    fresh copies of the distinguished group.

    Infinite-order witnesses need one amalgamation and two factors; finite
    nontrivial orders route through a cyclic-by-free auxiliary group and two
    further amalgamations, giving four factors.
    """
    if node.h_group is None:
        raise SchemeError("tower has no distinguished group; build its leaf "
                          "with hat_base")
    order = node.order_of(w)
    if order == 1:
        rec = SocleRecord(node, node.intern(w), [], 0)
        return node, rec
    if order == INFINITE:
        return _adjoin_infinite_witness(node, w, window, "socle")
    n = int(order)

    # auxiliary group: cyclic of order n, free product with an infinite
    # cyclic group; a = x1 x2 with both x1, x2 of infinite order
    zn = BaseNode(fingrp.cyclic(n), name=f"{node.name}.aux-zn")
    tr = BaseNode(fingrp.trivial(), name=f"{node.name}.aux-triv")
    zfree = HnnNode(tr, ExplicitShared([tr.identity_elem()], [tr.identity_elem()]),
                    name=f"{node.name}.aux-z")
    aux = AmalgamNode(zn, zfree,
                      ExplicitShared([zn.identity_elem()], [zfree.identity_elem()]),
                      name=f"{node.name}.aux")
    a = aux.lift(0, 1)
    t = aux.lift(1, zfree.intern(zfree.letter_word()))
    x2 = t
    x1 = aux.mul_elem(a, aux.inv_elem(t))
    if aux.mul_elem(x1, x2) != a:
        raise SchemeError("internal check failed: auxiliary factorization")
    if aux.elem_order(x1) != INFINITE or aux.elem_order(x2) != INFINITE:
        raise SchemeError("internal check failed: auxiliary factors must "
                          "have infinite order")

    g2 = AmalgamNode(node, aux, CyclicShared(node.intern(w), a, window),
                     name=f"{node.name}+socle-aux")
    w2 = g2.lift(0, node.intern(w))
    y1 = g2.lift(1, x1)
    y2 = g2.lift(1, x2)
    if g2.mul_elem(y1, y2) != w2:
        raise SchemeError("internal check failed: witness factorization")

    g3, rec1 = _adjoin_infinite_witness(g2, g2.elem_word(y1), window, "socle-a")
    y2_3 = g3.lift(0, y2)
    g4, rec2 = _adjoin_infinite_witness(g3, g3.elem_word(y2_3), window, "socle-b")

    final_product = [(nm, g4.lift(0, e)) for nm, e in rec1.product]
    final_product += rec2.product
    welem = g4.lift(0, g3.lift(0, w2))
    acc = g4.identity_elem()
    for _, e in final_product:
        acc = g4.mul_elem(acc, e)
    if acc != welem:
        raise SchemeError("internal check failed: socle product does not "
                          "recover the witness")
    return g4, SocleRecord(g4, welem, final_product, 3)


# -- scheme files ----------------------------------------------------------------

def parse_scheme_text(text: str, base_dir: str = ".", *,
                      budget: Optional[int] = None) -> Node:
    """Build named groups and tower nodes from a scheme description and
    return the target node.  A `hat` line's automorphism search runs under
    `budget`.

    Directives, one per line (# comments allowed):
      group <name> <builtin-or-path>
      base <name> <group>
      hat <name> <group>
      amalgam <name> <left> <right> shared <l>=<r> ...
      amalgam <name> <left> <right> cyclic <lgen>:<rgen> [window]
      hnn <name> <base> assoc <a>=<b> ...
      hnn <name> <base> cyclic <agen>:<bgen> [window]
      target <name>
    """
    groups: dict = {}
    nodes: dict = {}
    target = None
    last = None

    def node_of(nm):
        if nm not in nodes:
            raise SchemeError(f"unknown tower node {nm!r}")
        return nodes[nm]

    def pairing_of(kind, explicit, toks):
        """The spec of a `<explicit> <l>=<r> ...` or `cyclic <l>:<r>
        [window]` tail; either node kind takes it."""
        if toks[0] == explicit:
            pairs = []
            for tok in toks[1:]:
                if "=" not in tok:
                    raise SchemeError(f"expected <int>=<int>, got {tok!r}")
                l, _, r = tok.partition("=")
                pairs.append((int(l), int(r)))
            return ExplicitShared([l for l, _ in pairs], [r for _, r in pairs])
        if toks[0] == "cyclic":
            lg, _, rg = toks[1].partition(":")
            window = [int(t) for t in toks[2:3]]
            return CyclicShared(int(lg), int(rg), *window)
        raise SchemeError(f"{kind} mode must be '{explicit}' or 'cyclic'")

    for lineno, line in fingrp._content_lines(text):
        toks = line.split()
        kind = toks[0]
        try:
            if kind == "group":
                if len(toks) < 3:
                    raise SchemeError("group needs a name and a source")
                groups[toks[1]] = fingrp.group_at(" ".join(toks[2:]), base_dir)
            elif kind in ("base", "hat"):
                if len(toks) != 3:
                    raise SchemeError(f"{kind} needs a name and a group")
                if toks[2] not in groups:
                    raise SchemeError(f"unknown group {toks[2]!r}")
                grp = groups[toks[2]]
                if kind == "base":
                    nodes[toks[1]] = BaseNode(grp, name=toks[1])
                else:
                    nodes[toks[1]] = hat_base(grp, name=toks[1], budget=budget)
                last = nodes[toks[1]]
            elif kind == "amalgam":
                if len(toks) < 6:
                    raise SchemeError("malformed amalgam directive")
                left = node_of(toks[2])
                right = node_of(toks[3])
                shared = pairing_of(kind, "shared", toks[4:])
                nodes[toks[1]] = AmalgamNode(left, right, shared, name=toks[1])
                last = nodes[toks[1]]
            elif kind == "hnn":
                if len(toks) < 5:
                    raise SchemeError("malformed hnn directive")
                base = node_of(toks[2])
                assoc = pairing_of(kind, "assoc", toks[3:])
                nodes[toks[1]] = HnnNode(base, assoc, name=toks[1])
                last = nodes[toks[1]]
            elif kind == "target":
                if len(toks) != 2:
                    raise SchemeError("target needs a node name")
                target = node_of(toks[1])
            else:
                raise SchemeError(f"unknown directive {kind!r}")
        except (SchemeError, fingrp.GroupError, ValueError) as exc:
            # every error on a line, the node constructors' included, names it
            exc.args = (f"line {lineno}: {exc}",)
            raise
    if target is None:
        target = last
    if target is None:
        raise SchemeError("scheme defines no tower node")
    return target


def load_scheme(path: str, *, budget: Optional[int] = None) -> Node:
    import os
    with open(path) as fh:
        return parse_scheme_text(fh.read(), base_dir=os.path.dirname(path) or ".",
                                 budget=budget)
