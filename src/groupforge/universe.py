"""Ordinal-block addressing of tower groups at finite surrogate scale.

Tracked elements of a tower group are placed at addresses (alpha, offset):
alpha names a block (an ordinal surrogate below LAMPLUS) and the offset is a
position inside the block (below LAM).  The norm of an element is its block.
Norms follow the construction shape: base-copy elements sit in their copy's
home block, a product-word norm is the maximum of its syllable norms, a
syllable that lies in an amalgamated subgroup takes the smaller of its two
factor norms, and a stable letter takes the largest norm on the side it
rewrites to.

Containment and isomorphism checks are done on the address-indexed partial
structure (which pairs multiply to which tracked address), never on word
spellings, so groups built along different construction paths compare
soundly.  A strong isomorphism maps addresses by the unique order map
between the block sets while keeping offsets; codes number strong-isomorphism
classes in first-seen order within a run.

A group's partial tables are built on first access, in one of three ways.
A standard group (one copy of H per block, a free product) reads them off
H's table: two tracked elements have a tracked product exactly when one is
the identity or both lie in the same copy, and that product is H's.
Restriction, block filtering and re-addressing along an order map keep the
group's node and its words, so their tables are the source's tables cut
down to the kept addresses (and relabelled): a derived group filters its
source's tables.  Any other group multiplies its tracked words.  The
closure check (clause (b) of check_ugroup) reads the same tables.

The block geometry is fixed: LAMPLUS blocks of LAM offsets each, for every
group.  The construction needs one geometry at this finite scale, not a
configurable one.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .amalgam import (AmalgamNode, BaseNode, ExplicitShared, HnnNode,
                      INFINITE, Node, SchemeError, make_conjugate,
                      shared_pairing)
from .fingrp import FiniteGroup
from .words import EMPTY, FACTOR, LETTER, SyllableWord

LAM = 4096
LAMPLUS = 64


class Address(NamedTuple):
    alpha: int
    offset: int

    def __str__(self):
        return f"{self.alpha}:{self.offset}"


@dataclass(frozen=True)
class Code:
    cod: int
    dom: frozenset

    def __str__(self):
        return f"code {self.cod} dom {{{','.join(map(str, sorted(self.dom)))}}}"


class UGroup:
    """A tower group with tracked elements addressed into blocks."""

    def __init__(self, node: Node, addr: dict, u: Iterable[int],
                 name: Optional[str] = None, *,
                 h: Optional[FiniteGroup] = None, standard: bool = False):
        self.node = node
        self.addr = dict(addr)
        self.u = frozenset(u)
        self.name = name or node.name
        self.h = h                # the base table fresh factors copy
        self.standard = standard  # one copy of h per block, a free product
        seen = {}
        for w, a in self.addr.items():
            if not (0 <= a.alpha < LAMPLUS and 0 <= a.offset < LAM):
                raise SchemeError(f"address {a} outside the configured blocks")
            if a in seen:
                raise SchemeError(f"address {a} assigned twice")
            seen[a] = w
        self._by_addr = seen
        self._tables = None
        # makes the tables on first access; standard and derived groups
        # replace the word-by-word default
        self._build = self._multiplied_tables

    def word_at(self, a: Address) -> SyllableWord:
        return self._by_addr[a]

    def _built_tables(self):
        """Partial multiplication and inverse tables on addresses.

        Only pairs whose product is itself tracked appear; everything else
        is outside the surrogate's view."""
        if self._tables is None:
            self._tables = self._build()
            self._build = None  # let go of a source group
        return self._tables

    def _multiplied_tables(self):
        node, addr = self.node, self.addr
        mul = {}
        inv = {}
        items = list(addr.items())
        for w1, a1 in items:
            wi = node.canonical(node.invert_word(w1))
            if wi in addr:
                inv[a1] = addr[wi]
            for w2, a2 in items:
                got = addr.get(node.canonical(node.mul_words(w1, w2)))
                if got is not None:
                    mul[(a1, a2)] = got
        return mul, inv

    def _filtered_tables(self, src: "UGroup"):
        """src's entries whose operands and result we track, relabelled.  A
        multiplied build records a product exactly when its word is tracked,
        and every word we track src tracks too, so the two builds agree."""
        smul, sinv = src._built_tables()
        amap = {src.addr[w]: a for w, a in self.addr.items()}
        mul = {}
        for (s1, s2), sp in smul.items():
            a1, a2, ap = amap.get(s1), amap.get(s2), amap.get(sp)
            if a1 is not None and a2 is not None and ap is not None:
                mul[(a1, a2)] = ap
        inv = {amap[s1]: amap[sp] for s1, sp in sinv.items()
               if s1 in amap and sp in amap}
        return mul, inv

    @property
    def amul(self):
        return self._built_tables()[0]

    @property
    def ainv(self):
        return self._built_tables()[1]


def le(p: UGroup, q: UGroup) -> bool:
    """Containment on the addressed structure: every tracked element, product
    and inverse of p appears identically in q."""
    if not p.u <= q.u:
        return False
    if not p._by_addr.keys() <= q._by_addr.keys():
        return False
    qm, qi = q._built_tables()
    pm, pi = p._built_tables()
    return pm.items() <= qm.items() and pi.items() <= qi.items()


def restrict(g: UGroup, alpha: int) -> UGroup:
    """The part of g addressed strictly below block alpha."""
    if alpha < 1:
        raise SchemeError("restriction boundary must be at least 1")
    addr = {w: a for w, a in g.addr.items() if a.alpha < alpha}
    u = {b for b in g.u if b < alpha}
    return _derived(g, addr, u, f"{g.name}|{alpha}")


def block_filter(g: UGroup, blocks) -> UGroup:
    blocks = frozenset(blocks)
    addr = {w: a for w, a in g.addr.items() if a.alpha in blocks}
    return _derived(g, addr, g.u & blocks, f"{g.name}&")


def _derived(g: UGroup, addr: dict, u, name: str) -> UGroup:
    """A group on g's node tracking a subset of g's words; its tables are
    filtered from g's when first asked for."""
    out = UGroup(g.node, addr, u, name=name, h=g.h, standard=g.standard)
    out._build = functools.partial(out._filtered_tables, g)
    return out


# -- norms and address assignment ------------------------------------------------

def _leaf_blocks(node: Node, u_sorted) -> dict:
    """Home block for every base leaf: the leaves in tree order take the
    sorted blocks in turn."""
    leaves = []

    def walk(n):
        if isinstance(n, BaseNode):
            leaves.append(n)
        else:
            for f in n.factors:
                walk(f)

    walk(node)
    if len(leaves) > len(u_sorted):
        raise SchemeError(f"{len(leaves)} base copies but only "
                          f"{len(u_sorted)} blocks")
    return {id(leaf): u_sorted[i] for i, leaf in enumerate(leaves)}


def _norm_word(node: Node, w, homes: dict, memo: dict) -> int:
    if isinstance(node, BaseNode):
        e = node.intern(w)
        return 0 if node.group.is_identity(e) else homes[id(node)]
    best = 0
    shared = shared_pairing(node)
    for syl in node.reduce(w):
        if syl[0] == LETTER:
            n = _letter_norm(node, homes, memo)
        else:
            side, elem = syl[1], syl[2]
            n = _norm_elem(node.factors[side], elem, homes, memo)
            if shared is not None and shared.member(side, elem):
                other = shared.convert(side, elem)
                n = min(n, _norm_elem(node.factors[1 - side], other,
                                      homes, memo))
        best = max(best, n)
    return best


def _norm_elem(node: Node, elem: int, homes: dict, memo: dict) -> int:
    key = (id(node), elem)
    got = memo.get(key)
    if got is None:
        got = _norm_word(node, node.elem_word(elem), homes, memo)
        memo[key] = got
    return got


def _letter_norm(node: HnnNode, homes: dict, memo: dict) -> int:
    key = (id(node), "t")
    got = memo.get(key)
    if got is None:
        got = 0
        for b_elem, _ in node._bound.scan(1):
            got = max(got, _norm_elem(node.base, b_elem, homes, memo))
        memo[key] = got
    return got


def _tracked_words(node: Node) -> list:
    """Default tracked set: registry words, lifted factor elements, stable
    letters, closed under inverses."""
    out = {}

    def add(w):
        c = node.canonical(w)
        if c not in out:
            out[c] = True
            ci = node.canonical(node.invert_word(c))
            if ci not in out:
                out[ci] = True

    add(EMPTY)
    # a base node is its own one factor
    for side, fac in enumerate(node.factors):
        count = fac.elem_count()
        for e in range(count if count is not None else len(fac._rwords)):
            add(SyllableWord([(FACTOR, side, e)]))
    if isinstance(node, HnnNode):
        add(node.letter_word())
    for w in list(node._rwords):
        add(w)
    return list(out)


def assign_addresses(node: Node, u, *, tracked: Optional[list] = None,
                     h: Optional[FiniteGroup] = None) -> UGroup:
    """Address the tracked elements of a tower group into the blocks of u."""
    u = sorted(set(u))
    if not u:
        raise SchemeError("the block set must contain 0")
    if u[0] != 0:
        raise SchemeError("the block set must contain 0")
    if u[-1] >= LAMPLUS:
        raise SchemeError(f"block {u[-1]} is beyond the configured "
                          f"{LAMPLUS} blocks")
    homes = _leaf_blocks(node, u)
    words = tracked if tracked is not None else _tracked_words(node)
    memo: dict = {}
    per_block: dict = {b: [] for b in u}
    for w in words:
        c = node.canonical(w)
        n = _norm_word(node, c, homes, memo)
        if n not in per_block:
            raise SchemeError(f"element {node.format(c)!r} has norm {n} "
                              f"outside the block set")
        per_block[n].append(c)
    addr = {}
    for b in u:
        block_words = sorted(set(per_block[b]),
                             key=lambda ww: (len(ww), tuple(ww)))
        if not block_words:
            raise SchemeError(f"no tracked element realizes block {b}")
        if len(block_words) > LAM:
            raise SchemeError(f"block {b} overflows: {len(block_words)} "
                              f"elements for {LAM} offsets")
        for i, ww in enumerate(block_words):
            addr[ww] = Address(b, i)
    if EMPTY not in addr or addr[EMPTY] != Address(0, 0):
        raise SchemeError("the identity did not land at the origin")
    return UGroup(node, addr, u, h=h)


# -- u-group checking --------------------------------------------------------------

@dataclass
class UCheckReport:
    ok: bool
    clause: Optional[str]
    detail: str


def check_ugroup(g: UGroup) -> UCheckReport:
    """Clause (a): all blocks used lie in u.  Clause (b): below every block
    boundary the tracked elements close under tracked inverses and products.
    Clause (c): every block of u is realized."""
    if EMPTY not in g.addr:
        return UCheckReport(False, "a", "the identity is not tracked")
    for w, a in g.addr.items():
        if a.alpha not in g.u:
            return UCheckReport(False, "a",
                                f"element at {a} uses a block outside u")
    amul, ainv = g._built_tables()
    for boundary in sorted(g.u):
        delta = Address(boundary, 0)
        below = [a for a in g.addr.values() if a < delta]
        for a in below:
            ai = ainv.get(a)
            if ai is None or not ai < delta:
                return UCheckReport(
                    False, "b", f"inverse of the element at {a} escapes the "
                                f"boundary {boundary}")
        for a1 in below:
            for a2 in below:
                ap = amul.get((a1, a2))
                if ap is not None and not ap < delta:
                    return UCheckReport(
                        False, "b", f"product of elements at {a1}, {a2} "
                                    f"escapes the boundary {boundary}")
    for b in g.u:
        if not any(a.alpha == b for a in g.addr.values()):
            return UCheckReport(False, "c", f"no element realizes block {b}")
    return UCheckReport(True, None, "all clauses hold")


# -- strong isomorphism and coding ------------------------------------------------

def is_strong_iso(g1: UGroup, g2: UGroup) -> Optional[dict]:
    """Witness map or None.  The only candidate is the order map between the
    block sets with offsets kept; it must carry the whole tracked structure."""
    u1, u2 = sorted(g1.u), sorted(g2.u)
    if len(u1) != len(u2):
        return None
    blockmap = dict(zip(u1, u2))
    A = {a: Address(blockmap[a.alpha], a.offset) for a in g1._by_addr}
    if set(A.values()) != g2._by_addr.keys():
        return None
    if {(A[x], A[y]): A[z] for (x, y), z in g1.amul.items()} != g2.amul:
        return None
    if {A[x]: A[y] for x, y in g1.ainv.items()} != g2.ainv:
        return None
    return {w: g2.word_at(A[a]) for w, a in g1.addr.items()}


class CodeRegistry:
    """Per-run enumeration of strong-isomorphism classes, first seen first."""

    def __init__(self):
        self._reps: list = []

    def code(self, g: UGroup) -> Code:
        for cod, rep in enumerate(self._reps):
            if is_strong_iso(rep, g) is not None:
                return Code(cod, frozenset(g.u))
        self._reps.append(g)
        return Code(len(self._reps) - 1, frozenset(g.u))

    def __len__(self):
        return len(self._reps)

    def record_lines(self) -> list:
        return [str(Code(i, frozenset(rep.u)))
                for i, rep in enumerate(self._reps)]


# -- the standard block family -----------------------------------------------------

def standard_ugroup(h: FiniteGroup, u) -> UGroup:
    """Free product of one copy of h per block, tracking the identity and the
    per-copy elements.  Block 0 holds the identity at offset 0 and the
    nontrivial elements of its copy at offsets 1.., other blocks hold their
    copy's nontrivial elements at offsets 0.."""
    us = sorted(set(u))
    if not us or us[0] != 0:
        raise SchemeError("the block set must contain 0")
    leaves = [BaseNode(h, name=f"b{alpha}") for alpha in us]
    node = leaves[0]
    for leaf in leaves[1:]:
        node = AmalgamNode(node, leaf, ExplicitShared([h.identity],
                                                      [h.identity]),
                           name=f"{node.name}*{leaf.name}")
    one = Address(0, 0)
    addr = {EMPTY: one}
    nontrivial = [e for e in range(h.n) if not h.is_identity(e)]
    rows = []  # per copy, the address of each element of h
    for pos, alpha in enumerate(us):
        row = [one] * h.n
        for i, e in enumerate(nontrivial, 1 if alpha == 0 else 0):
            if len(us) == 1:
                w = node.elem_word(e)
            else:
                w = _chain_single(node, pos, len(us), e)
            row[e] = addr[node.canonical(w)] = Address(alpha, i)
        rows.append(row)
    g = UGroup(node, addr, us, name=f"blocks{{{','.join(map(str, us))}}}",
               h=h, standard=True)
    g._build = functools.partial(_standard_tables, h, nontrivial, rows)
    return g


def _standard_tables(h: FiniteGroup, nontrivial: list, rows: list):
    """The partial tables of a standard group, read off h's table; rows[c][e]
    is the address of element e of the c-th copy.

    A product of nontrivial elements from different copies has two
    syllables, so it is untracked; within one copy it is h's product, and
    the identity multiplies everything.  Entries go in in the order a
    word-by-word build records them: operands in address order, each
    element's inverse before its products."""
    one = Address(0, 0)
    tab, hinv = h.table.tolist(), h.inv.tolist()
    mul = {(one, a): a for a in [one] + [r[e] for r in rows for e in nontrivial]}
    inv = {one: one}
    for row in rows:
        for e1 in nontrivial:
            a1, t1 = row[e1], tab[e1]
            inv[a1] = row[hinv[e1]]
            mul[(a1, one)] = a1
            for e2 in nontrivial:
                mul[(a1, row[e2])] = row[t1[e2]]
    return mul, inv


def _chain_single(node: Node, pos: int, k: int, elem: int) -> SyllableWord:
    """The single-syllable word for element `elem` of the pos-th leaf inside
    a left-folded free product of k leaves."""
    if k == 1:
        return node.elem_word(elem)
    if pos == k - 1:
        return SyllableWord([(FACTOR, 1, elem)])
    inner = _chain_single(node.factors[0], pos, k - 1, elem)
    return SyllableWord([(FACTOR, 0, node.factors[0].intern(inner))])


def standard_family(h: FiniteGroup, master_u) -> list:
    """All standard groups over subsets of master_u containing 0, smallest
    domains first.  Restriction-closed by construction."""
    extra = sorted(set(master_u) - {0})
    subsets = [[0]]
    for b in extra:
        subsets = subsets + [s + [b] for s in subsets]
    subsets.sort(key=lambda s: (len(s), s))
    return [standard_ugroup(h, s) for s in subsets]


def order_iso_image(g: UGroup, blockmap: dict) -> UGroup:
    """Re-address g along an order isomorphism of block sets fixing 0."""
    us = sorted(g.u)
    if sorted(blockmap) != us:
        raise SchemeError("the block map must be defined exactly on the "
                          "group's blocks")
    targets = [blockmap[b] for b in us]
    if any(t1 >= t2 for t1, t2 in zip(targets, targets[1:])):
        raise SchemeError("the block map must be strictly increasing")
    if blockmap.get(0) != 0:
        raise SchemeError("the block map must fix block 0")
    if targets[-1] >= LAMPLUS:
        raise SchemeError("the block map leaves the configured blocks")
    addr = {w: Address(blockmap[a.alpha], a.offset) for w, a in g.addr.items()}
    return _derived(g, addr, set(targets), f"{g.name}~")


# -- poset axiom probe --------------------------------------------------------------

@dataclass
class ClauseResult:
    checked: int = 0
    failures: list = field(default_factory=list)


@dataclass
class PosetProbeReport:
    clauses: dict
    ok: bool


def _boundaries(g: UGroup):
    return sorted({b + 1 for b in g.u} | {1})


def poset_axiom_probe(family: list, *, samples: int = 20,
                      seed: int = 0) -> PosetProbeReport:
    """Clauses 1-6 run exhaustively over the family (boundaries included),
    clause 7 re-addresses every member once along a drawn block map, clause 8
    checks `samples` compatible pairs over a boundary."""
    rng = random.Random(seed)
    registry = CodeRegistry()
    codes = [registry.code(g) for g in family]
    n = len(family)
    leq = [[le(family[i], family[j]) for j in range(n)] for i in range(n)]
    res = {k: ClauseResult() for k in (1, 2, 3, 4, 5, 6, 7, 8)}

    restr_cache: dict = {}

    def restricted(i: int, alpha: int) -> UGroup:
        key = (i, alpha)
        if key not in restr_cache:
            restr_cache[key] = restrict(family[i], alpha)
        return restr_cache[key]

    # 1: containment implies domain containment
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                res[1].checked += 1
                if not family[i].u <= family[j].u:
                    res[1].failures.append(
                        f"{family[i].name} <= {family[j].name} but domains "
                        f"do not nest")

    # 2: common bound below r on the union of the domains
    filt_cache: dict = {}
    for k in range(n):
        under = [i for i in range(n) if leq[i][k]]
        for i in under:
            for j in under:
                res[2].checked += 1
                union = family[i].u | family[j].u
                key = (k, union)
                if key not in filt_cache:
                    r2 = block_filter(family[k], union)
                    filt_cache[key] = (r2, check_ugroup(r2).ok
                                       and le(r2, family[k]))
                r2, base_ok = filt_cache[key]
                if not (base_ok and le(family[i], r2) and le(family[j], r2)
                        and r2.u == union):
                    res[2].failures.append(
                        f"filtered bound between {family[i].name}, "
                        f"{family[j].name} under {family[k].name} broke")

    # 3: chains have upper bounds with the union domain
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                res[3].checked += 1
                ups = [k for k in range(n) if leq[i][k] and leq[j][k]]
                if not any(family[k].u == family[i].u | family[j].u
                           for k in ups):
                    res[3].failures.append(
                        f"chain {family[i].name} <= {family[j].name} has no "
                        f"bound on the union domain")

    # 4: restrictions exist, are contained, and are unique maximal
    for i, p in enumerate(family):
        for alpha in _boundaries(p):
            res[4].checked += 1
            r = restricted(i, alpha)
            good = (le(r, p) and r.u == {b for b in p.u if b < alpha}
                    and check_ugroup(r).ok)
            if good:
                for j in range(n):
                    if leq[j][i] and family[j].u <= set(range(alpha)):
                        if not le(family[j], r):
                            good = False
                            break
            if not good:
                res[4].failures.append(
                    f"restriction of {p.name} at {alpha} is not the unique "
                    f"maximal bounded part")

    # 5: restriction depends only on the blocks below the boundary
    for i, p in enumerate(family):
        top = max(p.u) + 2
        for a1 in range(1, top):
            for a2 in range(a1 + 1, top):
                if {b for b in p.u if b < a1} == {b for b in p.u if b < a2}:
                    res[5].checked += 1
                    r1, r2 = restricted(i, a1), restricted(i, a2)
                    if not (le(r1, r2) and le(r2, r1)):
                        res[5].failures.append(
                            f"restrictions of {p.name} at {a1} and {a2} "
                            f"differ despite equal block sets")

    # 6: restriction commutes with the chain order
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                for alpha in _boundaries(family[j]):
                    res[6].checked += 1
                    if not le(restricted(i, alpha), restricted(j, alpha)):
                        res[6].failures.append(
                            f"restriction at {alpha} does not preserve "
                            f"{family[i].name} <= {family[j].name}")

    # 7: order-isomorphic re-addressing stays in the class, monotonically
    for i in range(n):
        p = family[i]
        us = sorted(p.u)
        pool = sorted(rng.sample(range(1, LAMPLUS), len(us) - 1)) \
            if len(us) > 1 else []
        blockmap = dict(zip(us, [0] + pool))
        res[7].checked += 1
        try:
            img = order_iso_image(p, blockmap)
        except SchemeError as exc:
            res[7].failures.append(f"re-addressing {p.name} failed: {exc}")
            continue
        ok = (check_ugroup(img).ok
              and is_strong_iso(p, img) is not None
              and registry.code(img).cod == codes[i].cod)
        if ok:
            for j in range(n):
                if j != i and leq[j][i]:
                    sub = order_iso_image(
                        family[j], {b: blockmap[b] for b in family[j].u})
                    if not le(sub, img):
                        ok = False
                        break
        if not ok:
            res[7].failures.append(
                f"re-addressing {p.name} by {blockmap} left the class")

    # 8: amalgamation of compatible pairs over a boundary
    standard = [i for i in range(n) if family[i].standard]
    # the witness over a block set is the family's standard member there,
    # or a fresh standard group when the family has none
    witness_cache: dict = {}
    for i in standard:
        witness_cache.setdefault((family[i].h, family[i].u), family[i])
    attempts = 0
    while res[8].checked < samples and attempts < samples * 100:
        attempts += 1
        if len(standard) < 2:
            break
        pi = standard[rng.randrange(len(standard))]
        p = family[pi]
        q = family[standard[rng.randrange(len(standard))]]
        alpha = rng.randrange(1, max(p.u | q.u) + 2)
        if not le(restricted(pi, alpha), q):
            continue
        if p.u & q.u != {b for b in p.u if b < alpha}:
            continue
        res[8].checked += 1
        union = p.u | q.u
        key = (p.h, union)
        if key not in witness_cache:
            witness_cache[key] = standard_ugroup(p.h, union)
        r = witness_cache[key]
        if not (le(p, r) and le(q, r) and check_ugroup(r).ok):
            res[8].failures.append(
                f"amalgamation witness over {sorted(union)} does not "
                f"bound {p.name} and {q.name}")

    ok = all(not c.failures for c in res.values())
    return PosetProbeReport(res, ok)


# -- density moves ------------------------------------------------------------------

def _lift(src: Node, dst: Node, w) -> SyllableWord:
    """The image at dst of a word at src, where src is dst's factor 0."""
    return EMPTY if not w else dst.canonical(
        SyllableWord([(FACTOR, 0, src.intern(w))]))


def _extend_addr(addr: dict, chain: list, alpha: int) -> dict:
    """Carry addr up a chain of one-node extensions.  Each link is
    (src, dst, new words); the new words and their inverses take the next
    offsets in block alpha, which keeps every boundary closed."""
    for src, dst, new in chain:
        addr = {_lift(src, dst, w): a for w, a in addr.items()}
        off = max((a.offset for a in addr.values() if a.alpha == alpha),
                  default=-1) + 1
        for w in new:
            for c in (dst.canonical(w), dst.canonical(dst.invert_word(w))):
                if c and c not in addr:
                    addr[c] = Address(alpha, off)
                    off += 1
    return addr


def _checked_extension(what: str, g: UGroup, out: UGroup) -> UGroup:
    rep = check_ugroup(out)
    if not rep.ok:
        raise SchemeError(f"{what} step produced a bad group: {rep.detail}")
    if not le(g, out):
        raise SchemeError(f"{what} step does not extend its input")
    return out


def density_domain_step(q: UGroup, alpha: int, v) -> UGroup:
    """Extend q so that block alpha is realized, by a fresh base copy homed
    there.  Returns q unchanged when alpha is already in its domain."""
    if alpha in q.u:
        return q
    if v is not None and alpha not in v:
        raise SchemeError(f"target block {alpha} is outside the allowed set")
    if not 0 < alpha < LAMPLUS:
        raise SchemeError(f"target block {alpha} is outside the configured "
                          f"blocks")
    table = q.h
    if table is None:
        raise SchemeError("the step needs a base table recorded on the group")
    fresh = BaseNode(table, name=f"b{alpha}")
    node2 = AmalgamNode(q.node, fresh,
                        ExplicitShared([table.identity], [table.identity]),
                        name=f"{q.node.name}*b{alpha}")
    addr = {_lift(q.node, node2, w): a for w, a in q.addr.items()}
    off = 0
    for e in range(table.n):
        if table.is_identity(e):
            continue
        addr[node2.canonical(SyllableWord([(FACTOR, 1, e)]))] = \
            Address(alpha, off)
        off += 1
    return _checked_extension("domain", q, UGroup(
        node2, addr, q.u | {alpha}, name=f"{q.name}+b{alpha}", h=table))


@dataclass
class SimplicityMove:
    ugroup: UGroup
    case: str
    trace: list          # (conjugator word at the final node, exponent)
    extended: bool
    detail: str


def _trace_product(node: Node, y_word, trace) -> SyllableWord:
    acc = EMPTY
    for c, e in trace:
        term = node.conjugate_word(
            y_word if e == 1 else node.invert_word(y_word), c)
        acc = node.mul_words(acc, term)
    return acc


def replay_simplicity(move: SimplicityMove, x_word, y_word) -> bool:
    """Re-derive the product of conjugates and compare with x at the final
    node."""
    node = move.ugroup.node
    prod = _trace_product(node, y_word, move.trace)
    return not node.mul_words(prod, node.invert_word(x_word))


def density_simplicity_step(g: UGroup, x_word, y_word, *,
                            window: int = 16) -> SimplicityMove:
    """Extend g so that x becomes an explicit product of conjugates of y.

    Both orders are certified first.  When both are infinite one stable
    letter conjugates y to x.  When only x has finite order, a conjugate of y
    positioned across a factor boundary makes x times it infinite, and one
    letter plus that conjugation expresses x.  When y has finite order a
    cross-factor conjugate of y is attached to it first to make an
    infinite-order product of two y-conjugates, and the previous cases run
    with it."""
    node = g.node
    x = node.canonical(x_word)
    y = node.canonical(y_word)
    if x not in g.addr or y not in g.addr:
        raise SchemeError("x and y must be tracked elements")
    if not x or not y:
        raise SchemeError("x and y must be nontrivial")

    # already expressible without extension
    if node.equal(x, y):
        return SimplicityMove(g, "tracked", [(EMPTY, 1)], False,
                              "x equals y")
    for c in sorted(g.addr, key=lambda w: g.addr[w]):
        if node.equal(node.conjugate_word(y, c), x):
            return SimplicityMove(g, "tracked", [(c, 1)], False,
                                  "x is a tracked conjugate of y")

    ox = node.order_of(x)
    oy = node.order_of(y)
    chain = []

    def fresh_factor(cur: Node, tag: str):
        """Amalgamate a fresh copy of h onto cur as the next link; returns
        the new node and the copy's first nontrivial element."""
        table = g.h
        if table is None:
            raise SchemeError("the step needs a base table recorded on the "
                              "group to attach a fresh factor")
        fresh = BaseNode(table, name=f"{tag}{len(g.u)}")
        ext = AmalgamNode(cur, fresh,
                          ExplicitShared([table.identity], [table.identity]),
                          name=f"{cur.name}*{tag}")
        singles = [SyllableWord([(FACTOR, 1, e)]) for e in range(table.n)
                   if not table.is_identity(e)]
        chain.append((cur, ext, singles))
        return ext, singles[0]

    def conjugating_letter(cur: Node, u, v):
        """Extend cur by a stable letter t with t^-1 u t = v, the last link."""
        ext, t = make_conjugate(cur, u, v, window=window)
        chain.append((cur, ext, [t]))
        return ext, t

    cur, x_c, y_c = node, x, y   # the node below the letter, x and y there
    if ox == INFINITE and oy == INFINITE:
        top, t = conjugating_letter(node, y, x)
        trace = [(t, 1)]
        case, detail = "both-infinite", "one stable letter conjugates y to x"
    elif oy == INFINITE:
        # x has finite order: express x as (x . y^w) . (y^w)^-1
        w = next((c for c in sorted(g.addr, key=g.addr.get) if c and
                  node.order_of(node.mul_words(x, node.conjugate_word(y, c)))
                  == INFINITE), None)
        if w is None:
            cur, w = fresh_factor(node, "w")
            x_c, y_c = _lift(node, cur, x), _lift(node, cur, y)
        target = cur.mul_words(x_c, cur.conjugate_word(y_c, w))
        if cur.order_of(target) != INFINITE:
            raise SchemeError("could not build an infinite-order companion")
        top, t = conjugating_letter(cur, y_c, target)
        trace = [(t, 1), (_lift(cur, top, w), -1)]
        case, detail = ("finite-x", "x splits as an infinite companion times "
                                    "a conjugate of y")
    else:
        # y has finite order: make an infinite-order product of two
        # y-conjugates
        cur, w = fresh_factor(node, "w")
        x_c, y_c = _lift(node, cur, x), _lift(node, cur, y)
        big_y = cur.mul_words(y_c, cur.conjugate_word(y_c, w))
        if cur.order_of(big_y) != INFINITE:
            raise SchemeError("cross-factor companion is not of infinite "
                              "order")
        if ox == INFINITE:
            top, t = conjugating_letter(cur, big_y, x_c)
            trace = [(t, 1), (top.mul_words(_lift(cur, top, w), t), 1)]
            case, detail = ("finite-y", "an infinite product of two "
                                        "y-conjugates absorbs x")
        else:
            # both finite: a second cross-factor position keeps the
            # companion infinite whatever the exponents in the copies are
            below = cur
            cur, w2 = fresh_factor(below, "v")
            big_y, x_c, y_c, w = (_lift(below, cur, v)
                                  for v in (big_y, x_c, y_c, w))
            target = cur.mul_words(x_c, cur.conjugate_word(big_y, w2))
            if cur.order_of(target) != INFINITE:
                raise SchemeError("no companion position makes x times the "
                                  "y-product infinite")
            top, t = conjugating_letter(cur, big_y, target)
            trace = [(t, 1), (top.mul_words(_lift(cur, top, w), t), 1),
                     (_lift(cur, top, cur.mul_words(w, w2)), -1),
                     (_lift(cur, top, w2), -1)]
            case, detail = ("finite-both", "two stages: an infinite "
                                           "y-product, then the finite-x split")

    prod = _trace_product(top, _lift(cur, top, y_c), trace)
    if top.mul_words(prod, top.invert_word(_lift(cur, top, x_c))):
        raise SchemeError("conjugation trace failed to verify")
    out = UGroup(top, _extend_addr(g.addr, chain, g.addr[x].alpha), g.u,
                 name=f"{g.name}+t", h=g.h)
    return SimplicityMove(_checked_extension("simplicity", g, out), case,
                          trace, True, detail)
