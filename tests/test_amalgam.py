"""Tower-node layer: reduction, canonical forms, stable letters, and the
conjugation helpers.

Reduction is cross-checked against an independent stack reducer written here
from the defining rules, so the node's incremental pushing is never the only
route to an answer.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupforge import amalgam, fingrp, universe
from groupforge import words as W
from groupforge.amalgam import (INFINITE, AmalgamNode, BaseNode,
                                CyclicShared, ExplicitShared, HnnNode,
                                SchemeError, adjoin_socle_witness,
                                centralizer_conclusion_check,
                                conjugate_torsion_into_factor, fresh_letter,
                                hat_base, make_conjugate, parse_scheme_text,
                                realize_iso_by_hnn, subgroup_table)
from groupforge.words import EMPTY, FACTOR, LETTER, SyllableWord

from conftest import free_product, is_isomorphic, s3xz2_pair, z6_hnn, z6_pair


# -- independent reduction oracle ---------------------------------------------

def oracle_reduce(node, w):
    """Stack reduction from the defining rules: drop identities, merge
    same-side neighbours, and convert shared elements (stranded on the stack
    or incoming) to the side where they can merge."""
    fac = node.factors
    shared = node._shared
    out = []
    for syl in w:
        while True:
            side, elem = syl[1], syl[2]
            if fac[side].is_identity_elem(elem):
                break
            if out and out[-1][1] == side:
                prev = out.pop()
                syl = (FACTOR, side, fac[side].mul_elem(prev[2], elem))
                continue
            if out and shared.member(out[-1][1], out[-1][2]):
                prev = out.pop()
                conv = shared.convert(prev[1], prev[2])
                syl = (FACTOR, side, fac[side].mul_elem(conv, elem))
                continue
            if out and shared.member(side, elem):
                prev = out.pop()
                oside = prev[1]
                conv = shared.convert(side, elem)
                syl = (FACTOR, oside, fac[oside].mul_elem(prev[2], conv))
                continue
            out.append((FACTOR, side, elem))
            break
    return SyllableWord(out)


def amalgam_words(node, max_len=10):
    n0 = node.factors[0].elem_count()
    n1 = node.factors[1].elem_count()
    syls = st.one_of(
        st.tuples(st.just(FACTOR), st.just(0), st.integers(0, n0 - 1)),
        st.tuples(st.just(FACTOR), st.just(1), st.integers(0, n1 - 1)))
    return st.lists(syls, max_size=max_len).map(SyllableWord)


FP57 = free_product(5, 7)
AM66 = z6_pair()
AM66T = z6_pair(twist=True)
HN6 = z6_hnn()


@given(amalgam_words(FP57))
def test_free_product_reduce_matches_oracle(w):
    assert FP57.reduce(w) == oracle_reduce(FP57, w)


@given(amalgam_words(AM66))
def test_amalgam_reduce_matches_oracle(w):
    assert AM66.reduce(w) == oracle_reduce(AM66, w)


@given(amalgam_words(AM66T))
def test_twisted_amalgam_reduce_matches_oracle(w):
    assert AM66T.reduce(w) == oracle_reduce(AM66T, w)


@given(amalgam_words(AM66))
def test_reduce_idempotent_and_valid(w):
    r = AM66.reduce(w)
    assert AM66.reduce(r) == r
    AM66.validate_word(r)
    for i in range(1, len(r)):
        assert r[i][1] != r[i - 1][1]
    if len(r) >= 2:
        for syl in r:
            assert not AM66._shared.member(syl[1], syl[2])


@given(amalgam_words(AM66))
def test_word_inverse_cancels(w):
    assert AM66.mul_words(w, AM66.invert_word(w)) == EMPTY
    assert AM66.mul_words(AM66.invert_word(w), w) == EMPTY


@given(amalgam_words(AM66))
def test_canonical_is_idempotent_and_equal(w):
    c = AM66.canonical(w)
    assert AM66.canonical(c) == c
    assert AM66.equal(w, c)


@given(amalgam_words(AM66), st.integers(0, 2), st.data())
def test_canonical_constant_on_shared_insertions(w, pair_idx, data):
    """Splicing s . s^-1 across a position, spelling s on the left and its
    partner's inverse on the right, changes the spelling but never the
    canonical form."""
    l_elem, r_elem = AM66._shared.pairs[pair_idx]
    pos = data.draw(st.integers(0, len(w)))
    spliced = SyllableWord(
        list(w[:pos])
        + [(FACTOR, 0, l_elem), (FACTOR, 1, AM66.factors[1].inv_elem(r_elem))]
        + list(w[pos:]))
    assert AM66.canonical(spliced) == AM66.canonical(w)


def test_reduce_converts_shared_between_opposite_sides():
    # left 2 is shared, so it crosses over and both right syllables merge
    w = AM66.parse("f1:1 f0:2 f1:1")
    assert AM66.reduce(w) == AM66.parse("f1:4")


def test_twisted_conversion_uses_the_twist():
    # the twisted gluing matches left 2 with right 4, so the same word
    # collapses completely: 1 + 4 + 1 = 0 mod 6
    w = AM66T.parse("f1:1 f0:2 f1:1")
    assert AM66T.reduce(w) == EMPTY
    assert AM66.reduce(AM66.parse("f1:1 f0:2 f1:1")) != EMPTY


def test_order_of_classifies():
    assert AM66.order_of(EMPTY) == 1
    assert AM66.order_of(AM66.parse("f0:3")) == 2
    assert AM66.order_of(AM66.parse("f0:2")) == 3
    assert AM66.order_of(AM66.parse("f0:3 f1:3")) == INFINITE
    assert FP57.order_of(FP57.parse("f0:1 f1:1")) == INFINITE


def test_weakly_cyclic_reduce_contract():
    w = AM66.parse("f1:1 f0:3 f1:5")
    core, conj = AM66.weakly_cyclic_reduce(w)
    assert AM66.is_weakly_cyclically_reduced(core)
    assert AM66.equal(AM66.conjugate_word(core, conj), w)
    assert len(core) <= len(AM66.reduce(w))


@given(amalgam_words(AM66))
def test_weakly_cyclic_reduce_always_verifies(w):
    core, conj = AM66.weakly_cyclic_reduce(w)
    assert AM66.is_weakly_cyclically_reduced(core)
    assert AM66.equal(AM66.conjugate_word(core, conj), w)


def oracle_weakly_cyclic_reduce(node, w):
    """Conjugate by the first syllable with full reductions of the rebuilt
    word until the ends no longer merge."""
    cur = node.reduce(SyllableWord(w))
    conj = EMPTY
    while node._ends_merge(cur):
        first = SyllableWord([cur[0]])
        inv_first = node.invert_word(first)
        cur = node.reduce(SyllableWord(W.concat(
            W.concat(inv_first, cur, node.ops), first, node.ops)))
        conj = W.concat(inv_first, conj, node.ops)
    return cur, conj


@pytest.mark.parametrize("node", [AM66, AM66T, s3xz2_pair()],
                         ids=["amalgam", "twisted", "s3xz2"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_weakly_cyclic_reduce_matches_full_reductions(node, data):
    """Each conjugation step pushes one merged syllable onto the middle of
    the word; rebuilding and reducing the whole word gives the same core
    and conjugator.  The word is a conjugate, so its ends merge."""
    w = data.draw(amalgam_words(node))
    c = data.draw(amalgam_words(node, 4))
    x = node.conjugate_word(w, c)
    assert node.weakly_cyclic_reduce(x) == oracle_weakly_cyclic_reduce(node, x)


def test_torsion_conjugation_recovers_factor_element():
    w = AM66.conjugate_word(AM66.parse("f0:3"), AM66.parse("f1:1 f0:1"))
    te = conjugate_torsion_into_factor(AM66, w)
    assert te.order == 2
    back = AM66.conjugate_word(
        SyllableWord([(FACTOR, te.side, te.elem)]), te.conj)
    assert AM66.equal(back, w)


def test_torsion_conjugation_identity_case():
    te = conjugate_torsion_into_factor(AM66, EMPTY)
    assert te.side is None and te.order == 1


def test_torsion_conjugation_rejects_infinite_order():
    with pytest.raises(SchemeError, match="infinite order"):
        conjugate_torsion_into_factor(AM66, AM66.parse("f0:3 f1:3"))


# -- stable letters ------------------------------------------------------------

def hnn_words(node, max_len=10):
    n0 = node.base.elem_count()
    syls = st.one_of(
        st.tuples(st.just(FACTOR), st.just(0), st.integers(0, n0 - 1)),
        st.tuples(st.just(LETTER), st.just(node.letter),
                  st.sampled_from([1, -1])))
    return st.lists(syls, max_size=max_len).map(SyllableWord)


def test_britton_pinches_associated_elements():
    t = HN6.letter
    w = HN6.parse(f"t{t}^-1 f0:3 t{t}")
    assert HN6.reduce(w) == HN6.parse("f0:3")


def test_britton_keeps_unassociated_elements():
    t = HN6.letter
    w = HN6.parse(f"t{t}^-1 f0:1 t{t}")
    r = HN6.reduce(w)
    assert sum(1 for s in r if s[0] == LETTER) == 2


@given(hnn_words(HN6))
def test_britton_idempotent_and_cancels(w):
    r = HN6.reduce(w)
    assert HN6.reduce(r) == r
    assert HN6.mul_words(w, HN6.invert_word(w)) == EMPTY


@given(hnn_words(HN6))
def test_britton_canonical_equal(w):
    c = HN6.canonical(w)
    assert HN6.equal(w, c)
    assert HN6.canonical(c) == c


# -- reduced tags and junction products -----------------------------------------

def z6_hnn_twisted() -> HnnNode:
    """Z/6 with a stable letter conjugating {0, 2, 4} by inversion."""
    base = BaseNode(fingrp.cyclic(6), name="c")
    return HnnNode(base, ExplicitShared([0, 2, 4], [0, 4, 2]))


JUNCTION_NODES = {"amalgam": z6_pair(), "twisted": s3xz2_pair(),
                  "hnn": z6_hnn(), "hnn-twisted": z6_hnn_twisted()}


def node_words(node, max_len=10):
    if isinstance(node, HnnNode):
        return hnn_words(node, max_len)
    return amalgam_words(node, max_len)


@pytest.mark.parametrize("name", sorted(JUNCTION_NODES))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_junction_product_matches_full_reduction(name, data):
    """mul_words of two reduced words pushes only through the junction.  The
    right operand starts with the inverse of a tail of the left one, followed
    by arbitrary syllables, so the junction cancels and carries deeply."""
    node = JUNCTION_NODES[name]
    words = node_words(node)
    u = node.reduce(data.draw(words))
    k = data.draw(st.integers(0, len(u)))
    tail = node.invert_word(SyllableWord(u[len(u) - k:]))
    v = node.reduce(W.concat(tail, data.draw(words), node.ops))
    got = node.mul_words(u, v)
    assert got == node.reduce(W.concat(u, v, node.ops))
    assert got == node.reduce(SyllableWord(got))  # a fixpoint of reduction
    assert node._holds(got) and node.reduce(got) is got


def test_junction_waits_for_a_stable_letter_to_pinch():
    """f0:1 t^-1 times f0:3 t: f0:3 appends unchanged, and only the letter
    after it pinches t^-1 f0:3 t (3 in A) into the left syllable."""
    node = z6_hnn()
    t = node.letter
    u = node.reduce(node.parse(f"f0:1 t{t}^-1"))
    v = node.reduce(node.parse(f"f0:3 t{t}"))
    assert node.mul_words(u, v) == node.parse("f0:4")
    assert node.mul_words(u, v) == node.reduce(W.concat(u, v, node.ops))


RUN_NODES = {"amalgam": z6_pair, "twisted": lambda: z6_pair(twist=True),
             "s3xz2": s3xz2_pair, "hnn": z6_hnn, "hnn-twisted": z6_hnn_twisted,
             "base": lambda: BaseNode(fingrp.cyclic(6))}


def run_words(node, max_len):
    if isinstance(node, BaseNode):
        return st.lists(st.tuples(st.just(FACTOR), st.just(0),
                                  st.integers(0, node.group.n - 1)),
                        max_size=max_len).map(SyllableWord)
    return node_words(node, max_len)


def counted_splice(node, *parts):
    """node.splice(*parts) and the number of syllable pushes it made."""
    calls = []
    push = node._push

    def counted(out, syl):
        calls.append(syl)
        return push(out, syl)

    node._push = counted
    try:
        return node.splice(*parts), len(calls)
    finally:
        del node._push


@pytest.mark.parametrize("name", sorted(RUN_NODES))
def test_splice_runs_equal_the_per_copy_fold(name):
    """Runs of one repeated part (the same object) splice to the per-copy
    fold, word for word and tag for tag.  The parts are short drawn words
    (single syllables among them), the inverse of one of them, which a
    junction swallows whole, and the runs carry and pinch at their
    junctions.  The run shortcut is taken on some draws, never at a base
    node, and some draws are shorter than their parts written out."""
    node = RUN_NODES[name]()
    words = run_words(node, 4)
    shortcut, shrunk = [], []

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        pool = [node.reduce(data.draw(words)) for _ in range(3)]
        pool.append(node.invert_word(pool[0]))
        runs = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                            st.integers(1, 9)),
                                  min_size=1, max_size=5))
        left = node.reduce(data.draw(words))
        rights = [pool[i] for i, count in runs for _ in range(count)]
        copies = [list(part) for part in rights]
        got, run_pushes = counted_splice(node, left, EMPTY, *rights)
        want, fold_pushes = counted_splice(node, left, EMPTY, *copies)
        assert got == want
        assert type(got) is type(want) and got.at == want.at == node.serial
        written = list(left) + [syl for part in rights for syl in part]
        assert want == node.reduce(SyllableWord(written))
        shortcut.append(run_pushes < fold_pushes)
        shrunk.append(len(got) < len(written))

    check()
    assert any(shortcut) == (name != "base")
    assert any(shrunk)


@pytest.mark.parametrize("name,text,settles", [
    ("s3xz2", "f0:2 f1:2 f0:4", True),
    ("hnn", "t f0:1 t^-1 t^-1", True),
    ("amalgam", "f0:1 f1:3 f0:1", False),
    ("amalgam", "f1:1", False)])
def test_splice_run_settles_only_on_a_steady_junction(name, text, settles):
    """Twelve copies of one part.  Over S3 x Z2 each junction merges f0:4
    f0:2 into one syllable, and over the Z6 HNN node each junction cancels
    t^-1 t; both settle after three copies and repeat the rest.  Over Z6 *
    Z6 glued along the evens, f0:1 f1:3 f0:1 carries a shared f0:2 into the
    copy before it, and a single syllable merges into the one before it;
    neither junction repeats itself, so every copy is pushed."""
    node = RUN_NODES[name]()
    letter = f"t{getattr(node, 'letter', '')}"
    part = node.reduce(node.parse(text.replace("t", letter)))
    got, pushes = counted_splice(node, EMPTY, EMPTY, *[part] * 12)
    assert got == node.reduce(SyllableWord(list(part) * 12))
    assert node._holds(got)
    _, fold_pushes = counted_splice(node, EMPTY, EMPTY,
                                    *[list(part) for _ in range(12)])
    assert (pushes < fold_pushes) == settles
    if not settles:
        assert pushes == fold_pushes


@pytest.mark.parametrize("name", sorted(JUNCTION_NODES))
def test_tags_follow_reduction_and_inversion_only(name):
    node = JUNCTION_NODES[name]
    second = (node.letter_word()[0] if isinstance(node, HnnNode)
              else (FACTOR, 1, 1))
    w = node.reduce(SyllableWord([(FACTOR, 0, 1), second]))
    assert node._holds(w) and node.reduce(w) is w
    assert node._holds(node.invert_word(w))
    assert not node._holds(W.concat(w, w, node.ops))
    assert not node._holds(W.concat(W.EMPTY, w, node.ops))
    assert not node._holds(node.parse(node.format(w)))


def test_a_word_tagged_by_another_node_is_validated_again(monkeypatch):
    node = z6_pair()
    w = node.reduce(node.parse("f0:5 f1:1"))
    small = free_product(3, 3)
    for op in (lambda x: small.reduce(x),
               lambda x: small.mul_words(x, small.reduce(EMPTY))):
        with pytest.raises(SchemeError) as tagged:
            op(w)
        with pytest.raises(SchemeError) as plain:
            op(SyllableWord(w))
        assert str(tagged.value) == str(plain.value)
    twin = fresh_twin(node)
    checked = []
    monkeypatch.setattr(AmalgamNode, "validate_word",
                        lambda self, x: checked.append(self))
    assert twin.reduce(w) == w and checked == [twin]
    assert node.reduce(w) is w and checked == [twin]


# -- one product path: tagged canonical forms, spliced products -----------------

def density_tower():
    """The top node of a finite-both density move over Z3 on blocks 0, 2 (a
    stable letter over two fresh-factor amalgams over the standard group),
    and the syllables of its tracked words."""
    g = universe.standard_ugroup(fingrp.cyclic(3), [0, 2])
    move = universe.density_simplicity_step(g, g.node.parse("f1:1"),
                                            g.node.parse("f0:2"))
    return move.ugroup.node, sorted({syl for w in move.ugroup.addr
                                     for syl in w})


def all_syllables(node):
    return [(FACTOR, side, e) for side, fac in enumerate(node.factors)
            for e in range(fac.elem_count())]


DENSITY, DENSITY_SYLLABLES = density_tower()
PRODUCT_TOWERS = {"amalgam": z6_pair(), "twisted": z6_pair(twist=True),
                  "hnn": z6_hnn(), "hnn-twisted": z6_hnn_twisted(),
                  "density": DENSITY}


def tower_words(node, syllables, max_len=8):
    """Raw words over the given factor syllables and the stable letter of
    an HNN node.  The density tower draws only the syllables of its
    tracked words: its base registry also holds the powers of the letter's
    generator, whose coset scans reach the edge of their window."""
    syls = [st.sampled_from(syllables)]
    if isinstance(node, HnnNode):
        syls.append(st.tuples(st.just(LETTER), st.just(node.letter),
                              st.sampled_from([1, -1])))
    return st.lists(st.one_of(syls), max_size=max_len).map(SyllableWord)


TOWER_WORDS = {name: tower_words(node, DENSITY_SYLLABLES
                                 if node is DENSITY else all_syllables(node))
               for name, node in PRODUCT_TOWERS.items()}


def concat_product(node, u, v):
    """u . v as the library spelled it before splicing: merge-normalize,
    then validate and push the whole word."""
    return node.reduce(W.concat(u, v, node.ops))


def concat_conjugate(node, w, by):
    """by^-1 . w . by as the library spelled it before splicing: one merge
    over both junctions, then the whole word pushed."""
    return node.reduce(W.concat(W.concat(node.invert_word(by), w, node.ops),
                                by, node.ops))


@pytest.mark.parametrize("name", sorted(PRODUCT_TOWERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_canonical_forms_carry_the_tag_and_are_reduced(name, data):
    node = PRODUCT_TOWERS[name]
    c = node.canonical(data.draw(TOWER_WORDS[name]))
    assert node._holds(c) and node.reduce(c) is c
    assert node.reduce(SyllableWord(c)) == c
    assert node.canonical(SyllableWord(c)) == c


@pytest.mark.parametrize("name", sorted(PRODUCT_TOWERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_tagged_products_match_concat_then_reduce(name, data):
    """For reduced and canonical operands the spliced product is the
    concat-then-reduce word, syllable for syllable, and the spliced
    conjugate is that product taken at each junction in turn.  It is the
    same element as the one-merge spelling, of the same length."""
    node = PRODUCT_TOWERS[name]
    words = TOWER_WORDS[name]
    u, v, by = (node.reduce(data.draw(words)) for _ in range(3))
    c = node.canonical(data.draw(words))
    for a, b in ((u, v), (c, v), (u, c), (c, c)):
        got = node.mul_words(a, b)
        assert got == concat_product(node, a, b)
        assert node._holds(got)
    for w, b in ((u, by), (c, by), (u, c), (c, u)):
        got = node.conjugate_word(w, b)
        assert got == concat_product(
            node, concat_product(node, node.invert_word(b), w), b)
        assert node._holds(got)
        old = concat_conjugate(node, w, b)
        assert len(got) == len(old)
        assert node.canonical(got) == node.canonical(old)


@pytest.mark.parametrize("name", sorted(PRODUCT_TOWERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_raw_products_have_the_concat_canonical_form(name, data):
    """Raw operands are validated and reduced first; the product and the
    conjugate are the elements the concat-built words are."""
    node = PRODUCT_TOWERS[name]
    words = TOWER_WORDS[name]
    u, v = data.draw(words), data.draw(words)
    assert (node.canonical(node.mul_words(u, v))
            == node.canonical(W.concat(u, v, node.ops)))
    assert (node.canonical(node.conjugate_word(u, v))
            == node.canonical(concat_conjugate(node, u, v)))


def test_conjugate_pulls_a_shared_junction_before_the_next_part():
    """f0:5 conjugated by f0:1 f1:5 over Z6 * Z6 glued along the evens.  The
    first junction f0:5 . f0:5 = f0:4 is shared, so it is pulled into f1:1
    before f0:1 f1:5 is pushed.  One merge over both junctions makes
    f0:5 . f0:5 . f0:1 = f0:5 first.  Both spell the same element."""
    node = z6_pair()
    w, by = node.parse("f0:5"), node.reduce(node.parse("f0:1 f1:5"))
    got = node.conjugate_word(w, by)
    assert got == node.parse("f1:5 f0:1 f1:5")
    assert concat_conjugate(node, w, by) == node.parse("f1:1 f0:5 f1:5")
    assert node.equal(got, concat_conjugate(node, w, by))


def tower_registries(node):
    """Every registry in the tower, in a fixed walk order."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append(list(n._rwords))
        if n.kind != "base":
            todo.extend(n.factors)
    return out


@pytest.mark.parametrize("name", sorted(PRODUCT_TOWERS))
def test_mul_elem_interns_what_concat_interned(name):
    """The same sequence of products, by mul_elem and by interning the
    concatenated registry words, gives the same indices and leaves every
    registry of the tower identical, order included."""
    spliced = copy.deepcopy(PRODUCT_TOWERS[name])
    merged = copy.deepcopy(spliced)
    syllables = (DENSITY_SYLLABLES if name == "density"
                 else all_syllables(spliced))
    for node in (spliced, merged):
        for syl in syllables:
            node.intern(SyllableWord([syl]))
        if isinstance(node, HnnNode):
            node.intern(node.letter_word())
    rng = random.Random(5)
    for _ in range(150):
        size = len(spliced._rwords)
        a, b = rng.randrange(size), rng.randrange(size)
        want = merged.intern(W.concat(merged.elem_word(a),
                                      merged.elem_word(b), merged.ops))
        assert spliced.mul_elem(a, b) == want
    assert len(spliced._rwords) > 30
    assert tower_registries(spliced) == tower_registries(merged)


def test_letter_has_infinite_order():
    assert HN6.order_of(HN6.letter_word()) == INFINITE
    assert HN6.order_of(HN6.parse("f0:2")) == 3


def test_cyclic_britton_reduce_shrinks_conjugates():
    t = HN6.letter
    w = HN6.parse(f"f0:1 t{t} f0:3 t{t}^-1 f0:5")
    r = HN6.cyclic_core(w)
    letters = lambda u: sum(1 for s in u if s[0] == LETTER)
    assert letters(r) <= letters(HN6.reduce(w))
    assert letters(HN6.cyclic_core(r)) == letters(r)


def oracle_cyclic_britton_reduce(node, w):
    """The rotation loop with a full, validating reduction of each rotated
    word."""
    cur = node.reduce(w)
    while True:
        letters = [p for p, s in enumerate(cur) if s[0] == LETTER]
        if not letters:
            return cur
        rotated = node.reduce(SyllableWord(list(cur[1:]) + [cur[0]]))
        if cur[0][0] == FACTOR:
            cur = rotated
            continue
        e1, lastpos = cur[0][2], letters[-1]
        if cur[lastpos][2] == -e1:
            tail = (cur[lastpos + 1][2] if lastpos + 1 < len(cur)
                    else node.base.identity_elem())
            side = 0 if cur[lastpos][2] == -1 else 1
            if (node.base.is_identity_elem(tail)
                    or node._bound.member(side, tail)):
                cur = rotated
                continue
        return cur


CYCLIC_HNN = {"plain": HN6, "twisted": z6_hnn_twisted()}


@pytest.mark.parametrize("name", sorted(CYCLIC_HNN))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cyclic_britton_reduce_matches_full_rotations(name, data):
    """Each rotation pushes one syllable onto the rest; conjugating by a
    word with letters makes the ends pinch around the wrap."""
    node = CYCLIC_HNN[name]
    words = hnn_words(node, 6)
    u, c = data.draw(words), data.draw(words)
    w = SyllableWord(list(W.invert(c, node.ops)) + list(u) + list(c))
    got = node.cyclic_core(w)
    assert got == oracle_cyclic_britton_reduce(node, w)
    assert node._holds(got) and node.reduce(SyllableWord(got)) == got


def test_cyclic_britton_reduce_pinches_around_the_wrap():
    """t f0:1 t^-1 f0:3: the last letter and the tail 3 in A pinch with the
    first letter once it is rotated to the end."""
    t = HN6.letter
    w = HN6.parse(f"t{t} f0:1 t{t}^-1 f0:3")
    assert HN6.cyclic_core(w) == HN6.parse("f0:4")
    assert oracle_cyclic_britton_reduce(HN6, w) == HN6.parse("f0:4")


def test_cyclic_assoc_spec():
    base = BaseNode(fingrp.cyclic(5), name="c5")
    node = HnnNode(base, CyclicShared(1, 2, window=16))
    t = node.letter
    assert node.reduce(node.parse(f"t{t}^-1 f0:1 t{t}")) == \
        node.parse("f0:2")


# -- memoised coset scans ------------------------------------------------------

def windowed_hnn(window):
    """(Z3 * Z3) with a stable letter centralising the infinite-order u = a b;
    the associated subgroups are the powers of u up to +-window."""
    free = free_product(3, 3)
    u = free.intern(free.parse("f0:1 f1:1"))
    return HnnNode(free, CyclicShared(u, u, window=window)), u


def windowed_amalgam(window):
    """Two copies of Z3 * Z3 glued along <a b>, explored up to +-window."""
    left, right = free_product(3, 3), free_product(3, 3)
    u = left.intern(left.parse("f0:1 f1:1"))
    v = right.intern(right.parse("f0:1 f1:1"))
    return AmalgamNode(left, right, CyclicShared(u, v, window=window)), u


def fresh_twin(node):
    """The same node over the same factors, with an empty coset memo and a
    serial of its own, so it trusts no word the original reduced."""
    twin = copy.copy(node)
    twin._cosets = {}
    twin.serial = next(amalgam._serials)
    return twin


def element_pool(fac):
    """Every element of a finite factor; a few short words of an infinite one."""
    if fac.elem_count() is not None:
        return list(range(fac.elem_count()))
    return [fac.intern(fac.parse(t)) for t in
            ("f0:1", "f0:2", "f1:1", "f1:2", "f0:1 f1:1", "f1:1 f0:2")]


def random_word(node, pools, rng, length):
    syls = []
    for _ in range(length):
        if isinstance(node, HnnNode) and rng.random() < 0.4:
            syls.append((LETTER, node.letter, rng.choice((1, -1))))
        else:
            side = rng.randrange(len(pools))
            syls.append((FACTOR, side, rng.choice(pools[side])))
    return SyllableWord(syls)


def per_syllable_canonical(node, w):
    """AmalgamNode.canonical with its coset rewrite run on every syllable,
    the shared subgroup trivial or not."""
    r = node.reduce(w)
    if len(r) <= 1:
        if r and r[0][1] == 1 and node._bound.member(1, r[0][2]):
            return W.reduced([(FACTOR, 0, node._bound.convert(1, r[0][2]))],
                             node.serial)
        return r
    syls = list(r)
    for i in range(len(syls) - 1, 0, -1):
        side, elem = syls[i][1], syls[i][2]
        rep, carry = node._coset_data(side, elem)
        if node.factors[side].is_identity_elem(carry):
            continue
        syls[i] = (FACTOR, side, rep)
        oside = 1 - side
        syls[i - 1] = (FACTOR, oside, node.factors[oside].mul_elem(
            syls[i - 1][2], node._bound.convert(side, carry)))
    return W.reduced(syls, node.serial)


def tower_amalgams(node):
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        if isinstance(n, AmalgamNode):
            out.append(n)
        if n.kind != "base":
            todo.extend(n.factors)
    return out


@pytest.mark.parametrize("name,blocks", [("z3", [0, 1, 2, 3]),
                                         ("s3", [0, 2, 5]),
                                         ("a4", [0, 1, 3])])
def test_canonical_over_a_trivial_shared_subgroup_is_the_reduced_word(
        name, blocks):
    """Every amalgam of a standard tower has a trivial shared subgroup, so
    canonical returns the reduced word without a coset scan.  It equals the
    per-syllable coset rewrite, tag included, and interns the same elements
    (none), at every amalgam of the tower."""
    fast = universe.standard_ugroup(fingrp.named_group(name), blocks).node
    slow = copy.deepcopy(fast)
    rng = random.Random(7)
    for f, s in zip(tower_amalgams(fast), tower_amalgams(slow)):
        assert len(f._bound.pairs) == 1
        pools = [list(range(fac.elem_count() or len(fac._rwords)))
                 for fac in f.factors]
        for _ in range(150):
            w = random_word(f, pools, rng, rng.randrange(1, 9))
            got, want = f.canonical(w), per_syllable_canonical(s, w)
            assert got == want and got.at == f.serial == want.at
        assert tower_registries(fast) == tower_registries(slow)
        assert not f._cosets and s._cosets   # the skip scanned no coset
    assert len(tower_amalgams(fast)) == len(blocks) - 1


@pytest.mark.parametrize("make", [
    z6_pair, lambda: z6_pair(twist=True), z6_hnn,
    lambda: windowed_hnn(16)[0], lambda: windowed_amalgam(16)[0]],
    ids=["amalgam", "twisted", "hnn", "windowed-hnn", "windowed-amalgam"])
def test_memoised_coset_data_matches_a_fresh_scan(make):
    node = make()
    pools = [element_pool(fac) for fac in node.factors]
    rng = random.Random(3)
    for _ in range(300):
        try:
            node.canonical(random_word(node, pools, rng, rng.randrange(2, 9)))
        except SchemeError:
            pass
    assert len(node._cosets) > 3
    twin = fresh_twin(node)
    for (side, elem), got in list(node._cosets.items()):
        assert twin._coset_data(side, elem) == got
        assert node._coset_data(side, elem) == got


@pytest.mark.parametrize("make,what", [
    (windowed_hnn, "associated-subgroup window edge"),
    (windowed_amalgam, "shared-window edge")], ids=["hnn", "amalgam"])
def test_window_edge_scan_raises_on_every_call(make, what):
    node, u = make(2)
    fac = node._coset_factors[0]
    elem = fac.mul_elem(u, u)  # u^-2 . u^2 is the least candidate, at the edge
    for _ in range(3):
        with pytest.raises(SchemeError, match=what):
            node._coset_data(0, elem)
    assert (0, elem) not in node._cosets
    assert node._coset_data(0, u) == fresh_twin(node)._coset_data(0, u)
    assert (0, u) in node._cosets


def test_least_keeps_the_first_of_equal_candidates():
    """Distinct elements have distinct keys, so a tie is one element reached
    twice; the first arrival decides whether it counts as a window edge."""
    node = z6_pair()
    assert node._least(0, [(2, False, "a"), (2, True, "b"), (4, False, "c")],
                       "edge") == (2, False, "a")
    with pytest.raises(SchemeError, match="^edge$"):
        node._least(0, [(4, False, "a"), (2, True, "b"), (2, False, "c")],
                    "edge")


def test_bound_pairs_reject_unknown_element_indices():
    left = BaseNode(fingrp.cyclic(5), name="a")
    right = BaseNode(fingrp.cyclic(7), name="b")
    with pytest.raises(SchemeError, match="element index 9 unknown at a"):
        AmalgamNode(left, right, ExplicitShared([0, 9], [0, 9]))
    with pytest.raises(SchemeError, match="element index 12 unknown at a"):
        HnnNode(left, CyclicShared(1, 12))


def test_make_conjugate_produces_verified_letter():
    node = free_product(5, 7)
    u = node.parse("f0:1")
    v = node.parse("f0:2")
    ext, t = make_conjugate(node, u, v)
    u_id, v_id = node.intern(u), node.intern(v)
    got = ext.conjugate_word(SyllableWord([(FACTOR, 0, u_id)]), t)
    assert ext.equal(got, SyllableWord([(FACTOR, 0, v_id)]))


def test_make_conjugate_identity_shortcut():
    node = free_product(5, 7)
    same, t = make_conjugate(node, EMPTY, EMPTY)
    assert same is node and t == EMPTY


def test_make_conjugate_rejects_order_mismatch():
    node = z6_pair()
    with pytest.raises(SchemeError, match="different orders"):
        make_conjugate(node, node.parse("f0:1"), node.parse("f0:3"))


def test_fresh_letters_are_distinct():
    a, b = fresh_letter(), fresh_letter()
    assert a != b


def test_subgroup_table_of_shared_part():
    node = z6_pair()
    g = subgroup_table(node, [node.lift(0, e) for e in (0, 2, 4)])
    assert g.n == 3
    assert is_isomorphic(g, fingrp.cyclic(3))


def test_subgroup_table_rejects_open_lists():
    node = z6_pair()
    with pytest.raises(SchemeError, match="not closed"):
        subgroup_table(node, [node.lift(0, 0), node.lift(0, 1)])


def test_hat_base_tracks_both_copies():
    node = hat_base(fingrp.symmetric(3))
    assert node.group.n == 6
    assert node.h_group is not None and node.h_group.n == 6
    assert sorted(node.distinguished["h"]) == list(range(6))
    assert node.distinguished["hat"] == list(range(6))


def test_hat_base_requires_centerless():
    with pytest.raises(SchemeError, match="center"):
        hat_base(fingrp.cyclic(4))


def test_realize_iso_identity_pairing():
    node = hat_base(fingrp.symmetric(3))
    elems = list(range(6))
    r = realize_iso_by_hnn(node, elems, elems, elems, elems,
                           phi_pairs=[(a, a) for a in elems])
    assert r.letters[0] != r.letters[1]
    assert r.hat_conjugator == node.group.identity
    lift = lambda e: r.node.lift(0, r.mid.lift(0, e))
    for a in elems:
        fixed = r.node.conjugate_word(r.node.elem_word(lift(a)), r.conj)
        assert r.node.equal(fixed, r.node.elem_word(lift(a)))


def test_realize_iso_checks_every_pair():
    node = hat_base(fingrp.symmetric(3))
    aut = node.group
    g = next(a for a in range(aut.n) if aut.order_of(a) == 2)
    elems = list(range(6))
    phi = [(a, aut.conj(a, g)) for a in elems]
    r = realize_iso_by_hnn(node, elems, [b for _, b in phi], elems, elems,
                           phi_pairs=phi)
    lift = lambda e: r.node.lift(0, r.mid.lift(0, e))
    for a, b in phi:
        got = r.node.conjugate_word(r.node.elem_word(lift(a)), r.conj)
        assert r.node.equal(got, r.node.elem_word(lift(b)))


def test_realize_iso_rejects_unknown_element_indices():
    hat = hat_base(fingrp.symmetric(3))
    with pytest.raises(SchemeError, match="A: element index 99 unknown"):
        realize_iso_by_hnn(hat, [0, 1, 99], [0, 2, 1], range(6), range(6))
    with pytest.raises(SchemeError, match="pairs: element index -1 unknown"):
        realize_iso_by_hnn(hat, range(6), range(6), range(6), range(6),
                           phi_pairs=[(0, -1)])


def test_realize_iso_rejects_mismatched_pairs():
    node = hat_base(fingrp.symmetric(3))
    elems = list(range(6))
    with pytest.raises(SchemeError, match="pairs do not match"):
        realize_iso_by_hnn(node, elems, elems, elems, elems,
                           phi_pairs=[(a, 0) for a in elems])


def test_centralizer_check_infinite_class():
    node = free_product(5, 7)
    x = node.parse("f0:1 f1:1")
    sq = node.mul_words(x, x)
    rep = centralizer_conclusion_check(node, x, [sq, node.parse("f0:2")])
    assert rep.x_class == "infinite"
    assert rep.ok
    assert rep.entries[0].commutes and rep.entries[0].consistent
    assert not rep.entries[1].commutes


def test_centralizer_check_torsion_class():
    node = z6_pair()
    rep = centralizer_conclusion_check(node, node.parse("f0:3"),
                                       [node.parse("f0:3")])
    assert rep.x_class == "torsion"
    assert rep.ok


def test_centralizer_check_identity_class():
    node = z6_pair()
    rep = centralizer_conclusion_check(node, EMPTY, [node.parse("f1:1")])
    assert rep.x_class == "identity"
    assert rep.ok and rep.entries[0].commutes


# -- socle witnesses -----------------------------------------------------------

def test_socle_witness_identity_is_a_no_op():
    hat = hat_base(fingrp.symmetric(3))
    out, rec = adjoin_socle_witness(hat, EMPTY)
    assert out is hat
    assert len(rec.product) == 0 and rec.layers == 0


def test_socle_witness_torsion_needs_four_factors():
    hat = hat_base(fingrp.symmetric(3))
    x = next(i for i in range(hat.group.n) if hat.group.order_of(i) == 2)
    out, rec = adjoin_socle_witness(hat, SyllableWord([(FACTOR, 0, x)]))
    assert len(rec.product) == 4 and rec.layers == 3
    acc = out.identity_elem()
    for _, e in rec.product:
        acc = out.mul_elem(acc, e)
    assert acc == rec.elem
    assert rec.node is out


def test_socle_witness_infinite_needs_two_factors():
    h1 = hat_base(fingrp.symmetric(3), name="hl")
    h2 = hat_base(fingrp.symmetric(3), name="hr")
    node = AmalgamNode(h1, h2, ExplicitShared([h1.group.identity],
                                              [h2.group.identity]))
    x = next(i for i in range(6) if i != h1.group.identity)
    w = SyllableWord([(FACTOR, 0, x), (FACTOR, 1, x)])
    assert node.order_of(w) == INFINITE
    out, rec = adjoin_socle_witness(node, w)
    assert len(rec.product) == 2 and rec.layers == 1
    acc = out.identity_elem()
    for _, e in rec.product:
        acc = out.mul_elem(acc, e)
    assert acc == rec.elem


def test_socle_witness_requires_tracked_group():
    node = z6_pair()
    with pytest.raises(SchemeError, match="no distinguished group"):
        adjoin_socle_witness(node, node.parse("f0:3"))


# -- scheme text -----------------------------------------------------------------

GOLDEN_SCHEME = """
# two cyclic groups glued along their even parts, then a letter on top
group g1 z6
group g2 z6
base b1 g1
base b2 g2
amalgam mid b1 b2 shared 0=0 2=2 4=4
hnn top mid assoc 0=0
target top
"""


def test_scheme_text_builds_tower():
    top = parse_scheme_text(GOLDEN_SCHEME)
    assert isinstance(top, HnnNode) and top.name == "top"
    mid = top.base
    assert isinstance(mid, AmalgamNode) and mid.name == "mid"
    assert [f.name for f in mid.factors] == ["b1", "b2"]
    assert [f.group.name for f in mid.factors] == ["z6", "z6"]
    assert mid.order_of(mid.parse("f0:3 f1:3")) == INFINITE


def test_scheme_cyclic_hnn_directive():
    node = parse_scheme_text("group g z5\nbase b g\nhnn n b cyclic 1:2 12\n")
    t = node.letter
    assert node.reduce(node.parse(f"t{t}^-1 f0:1 t{t}")) == \
        node.parse("f0:2")


def test_scheme_pairings_parse_the_same_for_both_node_kinds():
    """`shared` and `assoc` tails give one spec, read into the same bound
    pairs; so do the `cyclic` tails, window included."""
    head = "group g z6\nbase l g\nbase r g\n"
    am = parse_scheme_text(head + "amalgam a l r shared 0=0 2=4 4=2\n")
    hn = parse_scheme_text(head + "hnn h l assoc 0=0 2=4 4=2\n")
    assert am._bound.pairs == hn._bound.pairs == [(0, 0), (2, 4), (4, 2)]
    am = parse_scheme_text(head + "amalgam a l r cyclic 2:4 3\n")
    hn = parse_scheme_text(head + "hnn h l cyclic 2:4 3\n")
    assert am._bound.pairs == hn._bound.pairs == [(0, 0), (2, 4), (4, 2)]


@pytest.mark.parametrize("line,match", [
    ("amalgam a l r assoc 0=0", "line 4: amalgam mode must be 'shared' or "
                                "'cyclic'"),
    ("hnn h l shared 0=0", "line 4: hnn mode must be 'assoc' or 'cyclic'"),
    ("hnn h l assoc 0-0", "line 4: expected <int>=<int>, got '0-0'"),
    ("amalgam a l r cyclic x:2 y", "line 4: invalid literal .* 'y'"),
    ("hnn h l cyclic 1:2", r"line 4: h associated subgroups: generator "
                           r"orders differ \(6 vs 3\)"),
])
def test_scheme_pairing_errors(line, match):
    with pytest.raises((SchemeError, ValueError), match=match):
        parse_scheme_text("group g z6\nbase l g\nbase r g\n" + line + "\n")


def test_both_node_kinds_lift_the_distinguished_copies():
    hat = hat_base(fingrp.symmetric(3))
    ext = HnnNode(hat, ExplicitShared([0], [0]))
    am = AmalgamNode(BaseNode(fingrp.cyclic(2)), ext,
                     ExplicitShared([0], [0]))
    assert ext.h_group is am.h_group is hat.h_group
    for key, elems in hat.distinguished.items():
        assert ext.distinguished[key] == [ext.lift(0, e) for e in elems]
        assert am.distinguished[key] == [am.lift(1, e)
                                         for e in ext.distinguished[key]]
        assert [ext.elem_word(e) for e in ext.distinguished[key]] == \
            [SyllableWord([(FACTOR, 0, e)]) if e else EMPTY for e in elems]


def test_cyclic_core_per_node_kind():
    base = BaseNode(fingrp.cyclic(6))
    assert base.cyclic_core(base.parse("f0:2 f0:5")) == base.parse("f0:1")
    for w in ("f1:1 f0:1 f1:2 f0:3 f1:5", "f0:1 f1:3 f0:5", "f0:2 f1:1"):
        w = AM66.parse(w)
        assert AM66.cyclic_core(w) == AM66.weakly_cyclic_reduce(w)[0]


def test_scheme_defaults_to_last_node():
    node = parse_scheme_text("group g z4\nbase b g\n")
    assert isinstance(node, BaseNode) and node.name == "b"


@pytest.mark.parametrize("text,match", [
    ("base b nosuch\n", "line 1"),
    ("group g z4\nfrobnicate g\n", "line 2"),
    ("group g z4\nbase b g\namalgam a b b shared 0\n", "line 3"),
    ("group g z4\ntarget nope\n", "line 2"),
    ("", "no tower node"),
])
def test_scheme_errors_carry_line_numbers(text, match):
    with pytest.raises(SchemeError, match=match):
        parse_scheme_text(text)


def test_scheme_group_file_reference(tmp_path):
    (tmp_path / "k4.grp").write_text(
        "group k4\norder 4\ntable\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    node = parse_scheme_text("group g k4.grp\nbase b g\n",
                             base_dir=str(tmp_path))
    assert node.group.name == "k4" and node.group.n == 4
