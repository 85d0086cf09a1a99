"""Metric relator machinery: piece measurement, certification, the shortening
decision procedure, and the membership obstruction.

The fast piece scan is cross-checked against a quadratic common-prefix oracle
over the explicit symmetrized closure, and the headline numbers are frozen so
a regression in either route shows up as a plain value mismatch.  The uint64
span-key matcher is also compared, witness for witness, with the tuple-and-dict
bucket scan it replaced.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupforge import fingrp, smallcancel
from groupforge import words as W
from groupforge.amalgam import (AmalgamNode, BaseNode, CyclicShared,
                                ExplicitShared, HnnNode, SchemeError)
from groupforge.smallcancel import (RelatorSystem, _best_match,
                                    _verify_fuzzy, build_relator, build_tau,
                                    check_metric, greendlinger_decide,
                                    malnormality_probe, max_piece,
                                    obstruction_check, replay_trace)
from groupforge.words import EMPTY, FACTOR, SyllableWord

from conftest import free_product, s3xz2_pair, z6_hnn, z6_pair


# -- independent piece oracle ---------------------------------------------------

def symmetrize(system):
    """All cyclic rotations of the cyclically reduced relators and their
    inverses, as explicit words, each once."""
    out = []
    seen = set()
    for r in system.cyclic_relators:
        for k in range(len(r)):
            rot = SyllableWord(list(r[k:]) + list(r[:k]))
            if rot not in seen:
                seen.add(rot)
                out.append(rot)
    return out


def brute_max_piece(words):
    """Longest common prefix over all pairs of distinct symmetrized words,
    by direct syllable comparison."""
    best = 0
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            u, v = words[i], words[j]
            L = 0
            while L < len(u) and L < len(v) and u[L] == v[L]:
                L += 1
            if L > best:
                best = L
    return best


def tau_system(n1, n2, n):
    node = free_product(n1, n2)
    tau = build_tau(node, node.parse("f0:1"), node.parse("f1:1"), n)
    return node, tau, RelatorSystem(node, [tau])


# -- the matcher's oracle: tuple signatures in dict buckets --------------------

def oracle_signature(arr, p, L):
    """The span signature the matcher's uint64 keys stand for, spelled out."""
    if L == 1:
        return ("d", int(arr["dcode"][p]))
    return (int(arr["lcode"][p]),
            tuple(arr["ecode"][p + 1:p + L - 1].tolist()), L,
            int(arr["rcode"][p + L - 1]))


def longest(probe, hi):
    """Binary search for the largest L <= hi with probe(L) not None."""
    lo, hit = 0, None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        got = probe(mid)
        if got is not None:
            lo, hit = mid, got
        else:
            hi = mid - 1
    return lo, hit


def oracle_max_piece(system):
    """(max piece, witness) by bucketing every span under its signature in
    scan order and verifying each new span against its bucket."""
    arrays = system._relator_arrays()

    def occurs_twice(L):
        table = {}
        for ri, arr in enumerate(arrays):
            if L > arr["n"]:
                continue
            for p in range(arr["n"]):
                bucket = table.setdefault(oracle_signature(arr, p, L), [])
                for qi, q in bucket:
                    if _verify_fuzzy(arrays[qi], q, arr, p, L):
                        return ((qi, q), (ri, p))
                bucket.append((ri, p))
        return None

    return longest(occurs_twice, max(arr["n"] for arr in arrays))


def oracle_best_match(system, w):
    """`_best_match` by the same bucket scan, one relator at a time."""
    warr = system._arrays_for(w)
    best = None
    for ri, rarr in enumerate(system._relator_arrays()):
        rlen = rarr["n"]

        def match_at(L):
            if L > rlen:
                return None
            table = {}
            for q in range(rlen):
                table.setdefault(oracle_signature(rarr, q, L), []).append(q)
            for p in range(len(w)):
                for q in table.get(oracle_signature(warr, p, L), []):
                    if _verify_fuzzy(warr, p, rarr, q, L):
                        return (p, q)
            return None

        L, hit = longest(match_at, min(len(w), rlen))
        if hit is not None:
            cand = (Fraction(L, rlen), L, hit[0], ri, hit[1])
            if best is None or cand[0] > best[0]:
                best = cand
    return best


TAU_NODES = {"z5*z7": lambda: free_product(5, 7),
             "z3*z5": lambda: free_product(3, 5),
             "s3xz2": s3xz2_pair}


def outside_shared(node, side):
    fac = node.factors[side]
    return [e for e in range(fac.elem_count())
            if not fac.is_identity_elem(e) and not node._shared.member(side, e)]


@st.composite
def tau_cases(draw):
    """A tau system over one of the nodes, with x1^2 outside the shared
    subgroup so that tau alternates factors, and a seed for its words."""
    node = TAU_NODES[draw(st.sampled_from(sorted(TAU_NODES)))]()
    square = node.factors[1].mul_elem
    x1s = [e for e in outside_shared(node, 1)
           if not node._shared.member(1, square(e, e))]
    x0 = draw(st.sampled_from(outside_shared(node, 0)))
    x1 = draw(st.sampled_from(x1s))
    n = draw(st.integers(1, 6))
    tau = build_tau(node, SyllableWord([(FACTOR, 0, x0)]),
                    SyllableWord([(FACTOR, 1, x1)]), n)
    return RelatorSystem(node, [tau]), draw(st.integers(0, 2 ** 32))


def sample_words(system, rng):
    """Members (products of relator conjugates), a member shifted by one
    syllable and a short word, all nonempty."""
    node = system.node

    def reduced(length):
        side, syls = rng.randrange(2), []
        for _ in range(length):
            syls.append((FACTOR, side, rng.choice(outside_shared(node, side))))
            side = 1 - side
        return node.reduce(SyllableWord(syls))

    def member(k):
        acc = EMPTY
        for _ in range(k):
            rel = system.relators[0]
            if rng.random() < 0.5:
                rel = node.invert_word(rel)
            acc = node.mul_words(acc, node.conjugate_word(rel, reduced(
                rng.randint(0, 4))))
        return acc

    shifted = node.mul_words(member(1), reduced(1))
    short = reduced(rng.randint(1, max(1, len(system.relators[0]) // 2)))
    return [w for w in (member(1), member(2), shifted, short) if w]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tau_cases())
def test_key_matcher_agrees_with_bucket_oracle(case):
    system, seed = case
    rep = max_piece(system)
    assert (rep.max_piece, rep.witness) == oracle_max_piece(system)
    for w in sample_words(system, random.Random(seed)):
        assert _best_match(system, w) == oracle_best_match(system, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tau_cases())
def test_spliced_replacement_matches_full_reduction(case):
    """A Dehn replacement pushes only the replacement and its junctions; the
    full reduction of the rebuilt word agrees, with the span in place and
    with it rotated to the front (the unmatched rest contiguous in cur)."""
    system, seed = case
    node = system.node
    rng = random.Random(seed)

    def carry(side):
        shared = [s for s, _ in node._shared.scan(side)
                  if not node.factors[side].is_identity_elem(s)]
        if shared and rng.random() < 0.7:
            return (FACTOR, side, rng.choice(shared))
        return None

    for cur in sample_words(system, rng):
        n = len(cur)
        ri = rng.randrange(len(system.cyclic_relators))
        rlen = len(system.cyclic_relators[ri])
        for rotate in (False, True):
            if rotate:
                if n < 2 or rlen < 2:
                    continue
                p = rng.randrange(1, n)
                L = rng.randint(n - p + 1, max(n - p + 1, min(n, rlen)))
                if L > rlen:
                    continue
                wsyls = (list(cur) + list(cur))[p:p + n]
                p = 0
            else:
                p = rng.randrange(n)
                L = rng.randint(1, min(n - p, rlen))
                wsyls = list(cur)
            q = rng.randrange(rlen)
            a, b = carry(wsyls[p][1]), carry(wsyls[p + L - 1][1])
            want = node.reduce(SyllableWord(
                wsyls[:p] + smallcancel._replacement(system, L, ri, q, a, b)
                + wsyls[p + L:]))
            got = smallcancel._apply_replacement(system, wsyls, p, L, ri, q,
                                                 a, b)
            assert got == want and node._holds(got)


@pytest.mark.parametrize("name,n", [("z5*z7", 4), ("z3*z5", 5), ("s3xz2", 3)])
def test_key_collisions_are_settled_by_verification(monkeypatch, name, n):
    """With keys folded into seven buckets nearly every key hit is a false
    one; the results stay the same because every hit is verified."""
    node = TAU_NODES[name]()
    x0, x1 = ("f0:4", "f1:4") if name == "s3xz2" else ("f0:1", "f1:1")
    system = RelatorSystem(node, [build_tau(node, node.parse(x0),
                                            node.parse(x1), n)])
    words = sample_words(system, random.Random(n))
    want = (max_piece(system), [_best_match(system, w) for w in words])
    keys = smallcancel._keys
    monkeypatch.setattr(smallcancel, "_keys",
                        lambda arrays, L, count: keys(arrays, L, count) % 7)
    # a fresh system: the first one keeps the relator keys it computed
    system = RelatorSystem(node, system.relators)
    assert (max_piece(system), [_best_match(system, w) for w in words]) == want


def hnn_tau_system(n):
    node = z6_hnn()
    t = node.letter
    return RelatorSystem(node, [build_tau(node, node.parse(f"t{t} f0:1"),
                                          node.parse(f"t{t}^-1 f0:2"), n)])


def two_relator_system():
    node = free_product(5, 7)
    return RelatorSystem(node, [
        node.parse("f0:1 f1:1 f0:2 f1:3 f0:1 f1:1"),
        node.parse("f0:3 f1:2 f0:1 f1:1 f0:1 f1:1 f0:2 f1:5")])


def named_tau_system(name, x0, x1, n):
    node = TAU_NODES[name]()
    return RelatorSystem(node, [build_tau(node, node.parse(x0),
                                          node.parse(x1), n)])


def s3_pair_over_a_transposition():
    """Two copies of S3 glued along a subgroup of order 2 that is not
    normal, so left and right classes differ."""
    g = fingrp.symmetric(3)
    s = next(a for a in range(g.n) if g.order_of(a) == 2)
    return AmalgamNode(BaseNode(g, name="l"), BaseNode(g, name="r"),
                       ExplicitShared([g.identity, s], [g.identity, s]))


def s3_pair_tau_system(n):
    node = s3_pair_over_a_transposition()
    return RelatorSystem(node, [build_tau(node, node.parse("f0:3"),
                                          node.parse("f1:5"), n)])


PIECE_SYSTEMS = {
    "z5*z7": lambda: named_tau_system("z5*z7", "f0:1", "f1:1", 7),
    "z5*z7-two": two_relator_system,
    "s3xz2": lambda: named_tau_system("s3xz2", "f0:4", "f1:5", 5),
    "s3-over-z2": lambda: s3_pair_tau_system(6),
    "hnn": lambda: hnn_tau_system(5),
}


@pytest.mark.parametrize("collide", [False, True])
@pytest.mark.parametrize("name", sorted(PIECE_SYSTEMS))
def test_max_piece_matches_the_bucket_oracle(monkeypatch, name, collide):
    """The sorted-key probes and the survivor narrowing after each hit give
    the bucket scan's piece and witness.  With keys folded into seven
    buckets nearly every repeat is a false one, so the sort, the survivor
    keys and the verification all run."""
    system = PIECE_SYSTEMS[name]()
    keys, narrowed = smallcancel._keys, []

    def spy(arrays, L, at):
        narrowed.append(not isinstance(at, int))
        return keys(arrays, L, at) % 7 if collide else keys(arrays, L, at)

    monkeypatch.setattr(smallcancel, "_keys", spy)
    rep = max_piece(system)
    assert (rep.max_piece, rep.witness) == oracle_max_piece(system)
    assert any(narrowed)


def thue_morse_system():
    """One relator over Z5 * Z7 of 2^11 syllables alternating factors, the
    j-th one element 1 + t_j of its factor, t the Thue-Morse sequence."""
    node = free_product(5, 7)
    return RelatorSystem(node, [SyllableWord(
        [(FACTOR, j % 2, 1 + bin(j).count("1") % 2) for j in range(2 ** 11)])])


def test_thue_morse_codes_collide_and_verification_settles_them(monkeypatch):
    """Polynomial keys modulo 2^64 collide on Thue-Morse-like code
    sequences: the relator's two halves are complementary, so their spans
    have different signatures and one key.  Every key hit is verified, so
    the piece, the matches and the decisions stay the bucket oracles'."""
    system = thue_morse_system()
    arr = system._relator_arrays()[0]
    half = arr["n"] // 2
    keys = smallcancel._keys(arr, half, arr["n"])
    assert keys[0] == keys[half]
    assert oracle_signature(arr, 0, half) != oracle_signature(arr, half, half)

    verify, rejected = smallcancel._verify_fuzzy, []

    def spy(arr1, p, arr2, q, L):
        ok = verify(arr1, p, arr2, q, L)
        if not ok:
            rejected.append(L)
        return ok

    monkeypatch.setattr(smallcancel, "_verify_fuzzy", spy)
    rep = max_piece(system)
    assert (rep.max_piece, rep.witness) == oracle_max_piece(system)
    assert half in rejected

    # the relator is far from C'(1/10); the rewriting runs at any bound
    bound = Fraction(1)
    words = sample_words(system, random.Random(2))
    want = [greendlinger_decide(system, w, bound=bound) for w in words]
    matched = []

    def checked(system, w):
        got = oracle_best_match(system, w)
        assert _best_match(system, w) == got
        matched.append(got)
        return got

    monkeypatch.setattr(smallcancel, "_best_match", checked)
    got = [greendlinger_decide(system, w, bound=bound) for w in words]
    assert got == want
    assert {v.status for v in got} >= {"member", "nonmember"}
    assert any(m is not None and m[0] == 1 for m in matched)
    for w, v in zip(words, got):
        if v.status == "member":
            assert replay_trace(system, w, v)


def oracle_arrays(system, w):
    """`_arrays_for` by one class lookup per syllable and Python-int
    fingerprint sums modulo 2^64."""
    got = [system._class_of(syl) for syl in w]
    ecode, lcode, rcode, dcode = (list(codes) * 2
                                  for codes in zip(*(g[1] for g in got)))
    mod, base = 1 << 64, smallcancel._BASE
    pref = [0]
    for j, c in enumerate(ecode):
        pref.append((pref[-1] + c * pow(base, j, mod)) % mod)
    inv = [pow(base, -j, mod) for j in range(len(ecode))]
    return {"ecode": ecode, "lcode": lcode, "rcode": rcode, "dcode": dcode,
            "pref": pref, "inv": inv, "n": len(w)}


@pytest.mark.parametrize("name", sorted(PIECE_SYSTEMS))
def test_arrays_for_matches_the_per_syllable_oracle(name):
    """Classifying each distinct syllable once gives every field, and the
    same class codes in the same order, as classifying each syllable."""
    system = PIECE_SYSTEMS[name]()
    fresh = RelatorSystem(system.node, system.relators)
    words = list(system.cyclic_relators)
    if name != "hnn":
        words += sample_words(system, random.Random(5))
    for w in words:
        got = system._arrays_for(w)
        want = oracle_arrays(fresh, w)
        assert sorted(got) == sorted(want)
        for field, value in want.items():
            if field in ("pref", "inv"):
                assert [v.tolist() for v in got[field]] == value, field
            elif field.endswith("code"):
                assert got[field].tolist() == value, field
            else:
                assert got[field] == value, field
        assert got["lcode"].dtype == np.int64
    assert system._codes == fresh._codes
    if name == "s3-over-z2":
        arr = system._relator_arrays()[0]
        assert not np.array_equal(arr["lcode"], arr["rcode"])
        assert not np.array_equal(arr["lcode"], arr["ecode"])


def oracle_verify(system, w1, p, w2, q, L):
    """The span comparison `_verify_fuzzy` stands for, on class ids: the
    double class of a single syllable, else the left class, the exact
    interior and the right class."""
    def ids(w, i):
        return system._class_of(w[i % len(w)])[0]

    if L == 1:
        return ids(w1, p)[3] == ids(w2, q)[3]
    return (ids(w1, p)[1] == ids(w2, q)[1]
            and ids(w1, p + L - 1)[2] == ids(w2, q + L - 1)[2]
            and all(ids(w1, p + k)[0] == ids(w2, q + k)[0]
                    for k in range(1, L - 1)))


@pytest.mark.parametrize("name", sorted(PIECE_SYSTEMS))
def test_verify_fuzzy_compares_the_class_ids(name):
    """Comparing class codes is comparing class ids, on every pair of
    relator spans up to length 4, both verdicts included."""
    system = PIECE_SYSTEMS[name]()
    rels = system.cyclic_relators
    arrays = system._relator_arrays()
    seen = set()
    for (w1, a1), (w2, a2) in [(x, y) for x in zip(rels, arrays)
                               for y in zip(rels, arrays)]:
        for L in range(1, 5):
            for p in range(len(w1)):
                for q in range(len(w2)):
                    got = bool(_verify_fuzzy(a1, p, a2, q, L))
                    assert got == oracle_verify(system, w1, p, w2, q, L)
                    seen.add(got)
    assert seen == {True, False}


def oracle_class_ids(system, syl):
    """The four class ids by plain nested right- and double-coset loops,
    keeping the first least candidate."""
    node = system.node
    side, elem = syl[1], syl[2]
    fac, shared = node.factors[side], node._shared
    lrep, _ = node._coset_data(side, elem)
    rbest = dbest = None
    for s_elem, edge1 in shared.scan(side):
        cand = fac.mul_elem(elem, s_elem)
        key = fac.elem_key(cand)
        if rbest is None or key < rbest[0]:
            rbest = (key, cand, edge1)
        for s2, edge2 in shared.scan(side):
            c2 = fac.mul_elem(s2, cand)
            k2 = fac.elem_key(c2)
            if dbest is None or k2 < dbest[0]:
                dbest = (k2, c2, edge1 or edge2)
    assert not (rbest[2] or dbest[2])
    return ((FACTOR, side, elem), (FACTOR, side, lrep),
            (FACTOR, side, rbest[1]), (FACTOR, side, dbest[1]))


@pytest.mark.parametrize("name,x0,x1,n", [("z5*z7", "f0:1", "f1:1", 6),
                                          ("z5*z7", "f0:3", "f1:5", 5),
                                          ("s3xz2", "f0:4", "f1:5", 4),
                                          ("s3xz2", "f0:2", "f1:3", 3)])
def test_class_of_matches_the_nested_scan_oracle(name, x0, x1, n):
    node = TAU_NODES[name]()
    system = RelatorSystem(node, [build_tau(node, node.parse(x0),
                                            node.parse(x1), n)])
    syls = sorted({syl for r in system.cyclic_relators for syl in r})
    got = [system._class_of(syl)[0] for syl in syls]
    assert got == [oracle_class_ids(system, syl) for syl in syls]
    if name == "s3xz2":
        # the shared involution makes some right and double classes coarser
        # than the exact one
        assert any(ids[2] != ids[0] or ids[3] != ids[0] for ids in got)


def test_class_of_raises_on_the_window_edge_every_time():
    """Two copies of Z2*Z3 amalgamated over <g>, g = f0:1 f1:1 of infinite
    order, with a window of 2 powers.  The syllable a = f1:1 g^2 has its
    least right-coset element a g^-2 = f1:1 on the window edge, so
    classifying it raises, and the failure is not memoised."""
    def z2z3(tag):
        return AmalgamNode(BaseNode(fingrp.cyclic(2), name=tag + "2"),
                           BaseNode(fingrp.cyclic(3), name=tag + "3"),
                           ExplicitShared([0], [0]), name=tag)

    left, right = z2z3("l"), z2z3("r")
    g = [n.intern(n.parse("f0:1 f1:1")) for n in (left, right)]
    node = AmalgamNode(left, right, CyclicShared(g[0], g[1], window=2))
    a = left.intern(left.parse("f1:1 f0:1 f1:1 f0:1 f1:1"))
    b = right.intern(right.parse("f1:1"))
    system = RelatorSystem(node, [SyllableWord([(FACTOR, 0, a),
                                                (FACTOR, 1, b)])])
    for _ in range(3):
        with pytest.raises(SchemeError, match="reached the window edge "
                                              "while classifying"):
            system._class_of((FACTOR, 0, a))
    assert (FACTOR, 0, a) not in system._classes


# -- relator construction ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_tau_length_law(n, fp57):
    tau = build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), n)
    assert len(tau) == sum(4 * k for k in range(1, n + 1))
    assert len(tau) == 2 * n * (n + 1)


def quadratic_tau(node, x0, x1, n):
    """build_tau as a block-by-block concatenation, copying the prefix each
    time: the reference for the one-pass merge."""
    x0, x1 = node.reduce(x0), node.reduce(x1)
    ops = node.ops
    x1sq = node.reduce(W.concat(x1, x1, ops))
    block_a, block_b = W.concat(x0, x1, ops), W.concat(x0, x1sq, ops)
    out = EMPTY
    for k in range(1, n + 1):
        for block in [block_a] * k + [block_b] * k:
            out = W.concat(out, block, ops)
    return node.reduce(out)


@pytest.mark.parametrize("name,x0,x1", [("z5*z7", "f0:1", "f1:1"),
                                        ("z5*z7", "f0:3", "f1:5"),
                                        ("s3xz2", "f0:4", "f1:5")])
def test_tau_matches_blockwise_concatenation(name, x0, x1):
    node = TAU_NODES[name]()
    x0, x1 = node.parse(x0), node.parse(x1)
    for n in range(1, 41):
        assert build_tau(node, x0, x1, n) == quadratic_tau(node, x0, x1, n)


def z6_hnn_twisted():
    """Z/6 with a stable letter conjugating {0, 2, 4} by inversion."""
    return HnnNode(BaseNode(fingrp.cyclic(6), name="c"),
                   ExplicitShared([0, 2, 4], [0, 4, 2]))


BLOCK_NODES = {"amalgam": z6_pair, "twisted": lambda: z6_pair(twist=True),
               "s3xz2": s3xz2_pair, "hnn": z6_hnn, "hnn-twisted": z6_hnn_twisted}


def raw_words(node, max_len):
    if isinstance(node, HnnNode):
        syls = st.one_of(
            st.tuples(st.just(FACTOR), st.just(0),
                      st.integers(0, node.base.elem_count() - 1)),
            st.tuples(st.just("t"), st.just(node.letter),
                      st.sampled_from([1, -1])))
    else:
        syls = st.one_of(*(
            st.tuples(st.just(FACTOR), st.just(side),
                      st.integers(0, node.factors[side].elem_count() - 1))
            for side in (0, 1)))
    return st.lists(syls, min_size=1, max_size=max_len).map(SyllableWord)


def product_of_blocks(node, x0, x1, n):
    """tau by the full, validating reduction of its blocks written out: the
    reference for the junction-splicing pass."""
    x0, x1 = node.reduce(x0), node.reduce(x1)
    block_a = node.mul_words(x0, x1)
    block_b = node.mul_words(x0, node.mul_words(x1, x1))
    syls = []
    for k in range(1, n + 1):
        syls += list(block_a) * k + list(block_b) * k
    return node.reduce(SyllableWord(syls)), len(syls)


@pytest.mark.parametrize("name", sorted(BLOCK_NODES))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_tau_is_the_product_of_its_blocks(name, data):
    """Multi-syllable generators whose blocks cancel, carry and pinch at the
    junctions."""
    node = BLOCK_NODES[name]()
    x0 = data.draw(raw_words(node, 4))
    x1 = data.draw(raw_words(node, 4))
    n = data.draw(st.integers(1, 6))
    if not node.reduce(x0) or not node.reduce(x1):
        return
    want, _ = product_of_blocks(node, x0, x1, n)
    got = build_tau(node, x0, x1, n)
    assert got == want and node._holds(got)


@pytest.mark.parametrize("name,x0,x1", [
    ("amalgam", "f0:5 f1:1", "f1:3 f0:5"),
    ("twisted", "f0:5 f1:3 f0:5 f1:1", "f1:1 f0:3 f1:1"),
    ("s3xz2", "f0:2 f1:4", "f1:4 f0:11"),
    ("hnn", "f0:5 t", "t f0:5"),
    ("hnn-twisted", "f0:2 t", "t f0:2")])
def test_tau_blocks_merge_at_the_junctions(name, x0, x1):
    """Blocks that carry or pinch into their neighbours: tau is shorter than
    its blocks written out."""
    node = BLOCK_NODES[name]()
    letter = f"t{getattr(node, 'letter', '')}"
    x0, x1 = (node.parse(x.replace("t", letter)) for x in (x0, x1))
    for n in (1, 4, 9):
        want, written = product_of_blocks(node, x0, x1, n)
        got = build_tau(node, x0, x1, n)
        assert got == want and len(got) < written


def test_tau_is_linear_in_its_length(fp57):
    t0 = time.perf_counter()
    tau = build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), 160)
    assert time.perf_counter() - t0 < 0.5
    assert len(tau) == 2 * 160 * 161


def test_tau_rejects_bad_input(fp57):
    with pytest.raises(SchemeError, match="n >= 1"):
        build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), 0)
    with pytest.raises(SchemeError, match="nontrivial"):
        build_tau(fp57, EMPTY, fp57.parse("f1:1"), 2)


def test_relator_expresses_the_equation(fp57):
    z = fp57.parse("f0:2")
    r = build_relator(fp57, z, fp57.parse("f0:1"), fp57.parse("f1:1"), 3)
    tau = build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), 3)
    assert fp57.equal(fp57.mul_words(z, r), tau)


def test_relator_refuses_tautology(fp57):
    tau = build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), 2)
    with pytest.raises(SchemeError, match="trivial"):
        build_relator(fp57, tau, fp57.parse("f0:1"), fp57.parse("f1:1"), 2)


# -- piece measurement -------------------------------------------------------------

# expected (max piece, relator length) for tau over Z/5 * Z/7, both routes
TAU_57_PIECES = {2: (5, 12), 3: (9, 24), 4: (13, 40), 5: (17, 60)}


@pytest.mark.parametrize("n,expected", sorted(TAU_57_PIECES.items()))
def test_max_piece_matches_brute_oracle(n, expected):
    node, tau, system = tau_system(5, 7, n)
    rep = max_piece(system)
    brute = brute_max_piece(symmetrize(system))
    assert (rep.max_piece, len(tau)) == expected
    assert brute == rep.max_piece
    assert rep.ratio == Fraction(expected[0], expected[1])


def test_max_piece_cross_family():
    node, tau, system = tau_system(3, 5, 4)
    rep = max_piece(system)
    assert rep.max_piece == brute_max_piece(symmetrize(system))


def test_piece_witness_points_at_two_occurrences():
    node, tau, system = tau_system(5, 7, 3)
    rep = max_piece(system)
    (ri, p), (rj, q) = rep.witness
    assert (ri, p) != (rj, q)
    words = system.cyclic_relators
    a = SyllableWord(list(words[ri][p:]) + list(words[ri][:p]))
    b = SyllableWord(list(words[rj][q:]) + list(words[rj][:q]))
    # the two rotations agree syllable for syllable over the whole piece:
    # over a trivially shared subgroup fuzzy matching is exact matching
    assert list(a[:rep.max_piece]) == list(b[:rep.max_piece])


def test_certification_threshold_between_18_and_19():
    node, tau, system = tau_system(3, 5, 18)
    rep = check_metric(system)
    assert (rep.max_piece, min(rep.relator_lengths)) == (69, 684)
    assert rep.ratio == Fraction(23, 228)
    assert not rep.ok
    with pytest.raises(SchemeError, match="not certified"):
        system.ensure_certified()

    node, tau, system = tau_system(3, 5, 19)
    rep = check_metric(system)
    assert (rep.max_piece, min(rep.relator_lengths)) == (73, 760)
    assert rep.ratio == Fraction(73, 760)
    assert rep.ok
    system.ensure_certified()


def test_symmetrize_is_closed_and_sized():
    node, tau, system = tau_system(5, 7, 2)
    words = symmetrize(system)
    assert len(words) == 24
    pool = set(words)
    for w in words:
        assert SyllableWord(list(w[1:]) + list(w[:1])) in pool
        assert node.reduce(node.invert_word(w)) in pool


def test_cyclic_relator_list_dedupes_repeats_and_inverses(fp57):
    tau = build_tau(fp57, fp57.parse("f0:1"), fp57.parse("f1:1"), 3)
    system = RelatorSystem(fp57, [tau, tau, fp57.invert_word(tau)])
    assert len(system.cyclic_relators) == 2  # the core and its inverse


def test_max_piece_rejects_degenerate_relators(fp57):
    with pytest.raises(SchemeError, match="trivial"):
        max_piece(RelatorSystem(fp57, [EMPTY]))
    with pytest.raises(SchemeError, match="length at least two"):
        max_piece(RelatorSystem(fp57, [fp57.parse("f0:1")]))
    with pytest.raises(SchemeError, match="alternate"):
        max_piece(RelatorSystem(fp57, [fp57.parse("f0:1 f1:1 f0:1")]))


def test_fuzzy_piece_sandwich_on_proper_amalgam():
    """Against a genuinely shared subgroup the fuzzy piece length can exceed
    the exact common prefix, but only by the two end syllables."""
    node = z6_pair()
    r = node.parse("f0:1 f1:1 f0:3 f1:3 f0:5 f1:5")
    system = RelatorSystem(node, [r])
    exact = brute_max_piece(symmetrize(system))
    rep = max_piece(system)
    assert exact <= rep.max_piece <= exact + 2


# -- decision procedure --------------------------------------------------------

def test_decide_accepts_relator_conjugate():
    node, tau, system = tau_system(3, 5, 19)
    w = node.conjugate_word(tau, node.parse("f1:1"))
    v = greendlinger_decide(system, w)
    assert v.status == "member"
    assert v.steps >= 1
    assert replay_trace(system, w, v)


def test_decide_accepts_empty_word():
    node, tau, system = tau_system(3, 5, 19)
    assert greendlinger_decide(system, EMPTY).status == "member"


def test_decide_rejects_short_words():
    node, tau, system = tau_system(3, 5, 19)
    for text in ("f0:1", "f1:2", "f0:1 f1:1", "f0:2 f1:4 f0:1"):
        v = greendlinger_decide(system, node.parse(text))
        assert v.status == "nonmember", text


def test_decide_reports_half_prefix_undecided():
    node, tau, system = tau_system(3, 5, 19)
    half = SyllableWord(list(tau[:380]))
    v = greendlinger_decide(system, half)
    assert v.status == "undecided"
    assert v.max_fraction == Fraction(1, 2)


def test_decide_member_of_product_of_conjugates():
    node, tau, system = tau_system(3, 5, 19)
    u = node.conjugate_word(tau, node.parse("f0:1"))
    w = node.mul_words(u, tau)
    v = greendlinger_decide(system, w)
    assert v.status == "member"
    assert replay_trace(system, w, v)


# -- probes and the obstruction ---------------------------------------------------

def test_malnormality_probe_is_quiet_on_tau():
    node, tau, system = tau_system(3, 5, 19)
    rep = malnormality_probe(system, samples=50, seed=3)
    assert rep.ok
    assert rep.samples == 50
    assert rep.counterexamples == []


def test_malnormality_probe_certifies_at_its_bound(monkeypatch):
    """Z3 * Z5 at n = 3 has ratio 3/8 and at n = 19 ratio 73/760.  The probe
    certifies at its own bound before it samples, zero samples included,
    and every decision runs at that bound."""
    _, _, loose = tau_system(3, 5, 3)
    assert check_metric(loose).ratio == Fraction(3, 8)
    with pytest.raises(SchemeError, match="not certified at 1/10"):
        malnormality_probe(loose, samples=0)
    bounds = []

    def decide(system, w, **kw):
        bounds.append(kw["bound"])
        return greendlinger_decide(system, w, **kw)

    monkeypatch.setattr(smallcancel, "greendlinger_decide", decide)
    rep = malnormality_probe(loose, samples=20, seed=1, bound=Fraction(1, 2))
    assert rep.ok and bounds == [Fraction(1, 2)] * (20 - rep.tower_conjugacies)
    _, _, tight = tau_system(3, 5, 19)
    with pytest.raises(SchemeError, match="not certified at 1/100"):
        malnormality_probe(tight, samples=0, bound=Fraction(1, 100))


def test_malnormality_probe_needs_an_amalgam():
    hn = z6_hnn()
    t = hn.letter
    system = RelatorSystem(hn, [hn.parse(f"f0:1 t{t} f0:1 t{t}")])
    with pytest.raises(SchemeError, match="amalgamated product"):
        malnormality_probe(system)


def test_obstruction_holds_for_twisted_config(twist_node):
    rep = obstruction_check(twist_node, EMPTY,
                            twist_node.parse("f0:4"), twist_node.parse("f1:4"),
                            twist_node.parse("f0:2"), EMPTY, 20)
    assert rep.config_ok and rep.metric_ok and rep.ok
    assert rep.ratio == Fraction(11, 120)
    assert rep.verdicts == [(1, "nonmember")]


def test_obstruction_rejects_shared_twist(twist_node):
    rep = obstruction_check(twist_node, EMPTY,
                            twist_node.parse("f0:4"), twist_node.parse("f1:4"),
                            twist_node.parse("f0:1"), EMPTY, 20)
    assert not rep.config_ok and not rep.ok
    assert "shared" in rep.config_detail


def test_obstruction_rejects_centralizing_twist(twist_node):
    rep = obstruction_check(twist_node, EMPTY,
                            twist_node.parse("f0:4"), twist_node.parse("f1:4"),
                            twist_node.parse("f0:4"), EMPTY, 20)
    assert not rep.config_ok and not rep.ok
    assert "centralizes" in rep.config_detail
