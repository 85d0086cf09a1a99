"""Addressed surrogate groups: block addressing, the containment order, the
coded isomorphism classes, the poset axiom probe, and the density moves.

The probe counts and the code sequence for the small standard family are
frozen; any change to the ordering or the clause logic shows up as a count
mismatch rather than a silent pass.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from groupforge import fingrp, universe
from groupforge import words as W
from groupforge.amalgam import (AmalgamNode, BaseNode, ExplicitShared,
                                HnnNode, SchemeError)
from groupforge.universe import (Address, Code, CodeRegistry, UGroup,
                                 assign_addresses, block_filter, check_ugroup,
                                 density_domain_step, density_simplicity_step,
                                 is_strong_iso, le, order_iso_image,
                                 poset_axiom_probe,
                                 replay_simplicity, restrict,
                                 standard_family, standard_ugroup)
from groupforge.words import EMPTY, FACTOR, SyllableWord

Z3 = fingrp.cyclic(3)
Z2 = fingrp.cyclic(2)
S3 = fingrp.named_group("s3")
A4 = fingrp.named_group("a4")


def tracked_ugroup(h, blocks, extra_texts):
    """Standard group with extra tracked words, inverse-closed, the same way
    the command line attaches them."""
    g = standard_ugroup(h, blocks)
    node = g.node
    tracked = list(g.addr)
    for text in extra_texts:
        w = node.parse(text)
        tracked.append(w)
        tracked.append(node.invert_word(w))
    return assign_addresses(node, g.u, tracked=tracked, h=h)


def same_ugroup(p, q):
    """Equal addressed structures: containment both ways."""
    return le(p, q) and le(q, p)


# -- addresses and raw groups -----------------------------------------------------

def test_address_order_and_text():
    assert Address(0, 5) < Address(1, 0) < Address(1, 2)
    assert str(Address(3, 7)) == "3:7"
    assert str(Code(2, frozenset({0, 3}))) == "code 2 dom {0,3}"


def test_ugroup_rejects_reused_and_out_of_range_addresses():
    node = BaseNode(Z3)
    with pytest.raises(SchemeError, match="assigned twice"):
        UGroup(node, {EMPTY: Address(0, 0),
                      node.elem_word(1): Address(0, 1),
                      node.elem_word(2): Address(0, 1)}, [0])
    with pytest.raises(SchemeError, match="outside the configured"):
        UGroup(node, {EMPTY: Address(64, 0)}, [0])


def test_partial_tables_see_only_tracked_products():
    g = standard_ugroup(Z3, [0])
    assert g.amul[(Address(0, 1), Address(0, 1))] == Address(0, 2)
    assert g.ainv[Address(0, 1)] == Address(0, 2)
    assert sorted(a.offset for a in g.addr.values() if a.alpha == 0) == [0, 1, 2]
    assert not [a for a in g.addr.values() if a.alpha == 7]


def test_cross_block_products_stay_untracked():
    g = standard_ugroup(Z3, [0, 1])
    assert (Address(0, 1), Address(1, 0)) not in g.amul


# -- address assignment ------------------------------------------------------------

def test_assignment_reproduces_the_standard_layout():
    std = standard_ugroup(Z3, [0, 1])
    again = assign_addresses(std.node, [0, 1])
    assert same_ugroup(std, again)
    assert again.word_at(Address(0, 0)) == EMPTY


def test_assignment_input_errors():
    node = standard_ugroup(Z3, [0, 1]).node
    with pytest.raises(SchemeError, match="must contain 0"):
        assign_addresses(node, [1, 2])
    with pytest.raises(SchemeError, match="2 base copies but only 1 blocks"):
        assign_addresses(node, [0])
    with pytest.raises(SchemeError, match="no tracked element realizes"):
        assign_addresses(node, [0, 1, 5])


# -- the three checking clauses ----------------------------------------------------

def test_check_flags_missing_identity():
    node = BaseNode(Z3)
    g = UGroup(node, {node.elem_word(1): Address(0, 0)}, [0])
    rep = check_ugroup(g)
    assert not rep.ok and rep.clause == "a"


def test_check_flags_foreign_block():
    node = BaseNode(Z3)
    g = UGroup(node, {EMPTY: Address(0, 0),
                      node.elem_word(1): Address(1, 0)}, [0])
    rep = check_ugroup(g)
    assert not rep.ok and rep.clause == "a"


def test_check_flags_escaping_inverse():
    node = BaseNode(Z3)
    g = UGroup(node, {EMPTY: Address(0, 0),
                      node.elem_word(1): Address(0, 1),
                      node.elem_word(2): Address(1, 0)}, [0, 1])
    rep = check_ugroup(g)
    assert not rep.ok and rep.clause == "b"
    assert "inverse" in rep.detail


def test_check_flags_escaping_product():
    k4 = fingrp.named_group("z2xz2")
    node = BaseNode(k4)
    g = UGroup(node, {EMPTY: Address(0, 0),
                      node.elem_word(1): Address(0, 1),
                      node.elem_word(2): Address(0, 2),
                      node.elem_word(3): Address(1, 0)}, [0, 1])
    rep = check_ugroup(g)
    assert not rep.ok and rep.clause == "b"
    assert rep.detail == ("product of elements at 0:1, 0:2 escapes the "
                          "boundary 1")


def test_check_flags_unrealized_block():
    g = standard_ugroup(Z3, [0])
    widened = UGroup(g.node, g.addr, [0, 1], h=g.h, standard=g.standard)
    rep = check_ugroup(widened)
    assert not rep.ok and rep.clause == "c"


def test_check_accepts_standard_groups():
    for blocks in ([0], [0, 1], [0, 2], [0, 1, 2]):
        assert check_ugroup(standard_ugroup(Z3, blocks)).ok


# -- order, restriction, filtering ---------------------------------------------------

def test_le_follows_block_containment():
    family = {frozenset(s): standard_ugroup(Z3, s)
              for s in ([0], [0, 1], [0, 2], [0, 1, 2])}
    for u1, p in family.items():
        for u2, q in family.items():
            assert le(p, q) == (u1 <= u2), (sorted(u1), sorted(u2))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(1, 3)), st.sets(st.integers(1, 3)))
def test_le_matches_subset_order_for_z2_family(s, t):
    p = standard_ugroup(Z2, {0} | s)
    q = standard_ugroup(Z2, {0} | t)
    assert le(p, q) == (s <= t)
    if s == t:
        assert same_ugroup(p, q)


def test_restrict_cuts_below_the_boundary():
    g = standard_ugroup(Z3, [0, 1, 2])
    r = restrict(g, 2)
    assert r.u == {0, 1}
    assert le(r, g)
    assert check_ugroup(r).ok
    assert all(a.alpha < 2 for a in r.addr.values())
    with pytest.raises(SchemeError, match="at least 1"):
        restrict(g, 0)


def test_block_filter_keeps_named_blocks():
    g = standard_ugroup(Z3, [0, 1, 2])
    f = block_filter(g, {0, 2})
    assert f.u == {0, 2}
    assert le(f, g)
    assert same_ugroup(f, standard_ugroup(Z3, [0, 2]))


# -- strong isomorphism and codes -----------------------------------------------------

def test_strong_iso_between_shifted_domains():
    p = standard_ugroup(Z3, [0, 1])
    q = standard_ugroup(Z3, [0, 2])
    witness = is_strong_iso(p, q)
    assert witness is not None
    for w, img in witness.items():
        a = p.addr[w]
        assert q.addr[img].offset == a.offset
    assert is_strong_iso(p, standard_ugroup(Z3, [0])) is None
    assert is_strong_iso(p, standard_ugroup(Z2, [0, 1])) is None


def test_code_registry_freezes_class_order():
    family = standard_family(Z3, [0, 1, 2])
    assert [sorted(g.u) for g in family] == \
        [[0], [0, 1], [0, 2], [0, 1, 2]]
    reg = CodeRegistry()
    codes = [reg.code(g) for g in family]
    assert [c.cod for c in codes] == [0, 1, 1, 2]
    assert len(reg) == 3
    assert reg.record_lines() == \
        ["code 0 dom {0}", "code 1 dom {0,1}", "code 2 dom {0,1,2}"]


def test_order_iso_image_constraints():
    g = standard_ugroup(Z3, [0, 1])
    img = order_iso_image(g, {0: 0, 1: 5})
    assert img.u == {0, 5}
    assert check_ugroup(img).ok
    assert is_strong_iso(g, img) is not None
    with pytest.raises(SchemeError, match="fix block 0"):
        order_iso_image(g, {0: 1, 1: 2})
    with pytest.raises(SchemeError, match="strictly increasing"):
        order_iso_image(g, {0: 0, 1: 0})
    with pytest.raises(SchemeError, match="defined exactly"):
        order_iso_image(g, {0: 0, 2: 1})


# -- the axiom probe ---------------------------------------------------------------

def test_probe_counts_are_stable_and_clean():
    family = standard_family(Z3, [0, 1, 2])
    rep = poset_axiom_probe(family, samples=10, seed=4)
    assert rep.ok
    registry = CodeRegistry()
    assert [registry.code(g).cod for g in family] == [0, 1, 1, 2]
    checked = {k: c.checked for k, c in rep.clauses.items()}
    assert checked == {1: 9, 2: 25, 3: 5, 4: 8, 5: 1, 6: 13, 7: 4, 8: 10}
    assert all(c.failures == [] for c in rep.clauses.values())


def counted_standard_builds(monkeypatch):
    """Counts the standard groups built from here on."""
    calls = []
    real = universe.standard_ugroup

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(universe, "standard_ugroup", counting)
    return calls


def test_clause_8_witnesses_are_family_members(monkeypatch):
    family = standard_family(S3, [0, 1, 2, 3])
    calls = counted_standard_builds(monkeypatch)
    rep = poset_axiom_probe(family, samples=30, seed=2)
    assert rep.ok and rep.clauses[8].checked == 30
    assert calls == []


def test_clause_8_builds_witnesses_a_truncated_family_lacks(monkeypatch):
    """The family criterion 9 probes misses most five-block and all six- and
    seven-block sets; its counts are those of fresh witnesses throughout."""
    family = standard_family(S3, range(7))[:50]
    calls = counted_standard_builds(monkeypatch)
    rep = poset_axiom_probe(family, samples=100, seed=9)
    assert calls and all(len(u) > 4 for u in calls)
    assert not set(calls) & {g.u for g in family}
    assert rep.ok
    checked = {k: c.checked for k, c in rep.clauses.items()}
    assert checked == {1: 361, 2: 3593, 3: 311, 4: 178, 5: 181, 6: 1307,
                       7: 50, 8: 100}


# -- density moves ------------------------------------------------------------------

def test_domain_step_is_idempotent_on_present_blocks():
    g = standard_ugroup(Z3, [0, 1])
    assert density_domain_step(g, 1, {0, 1}) is g


def test_domain_step_extends_and_transports():
    g = standard_ugroup(Z3, [0, 1])
    out = density_domain_step(g, 3, {0, 1, 3})
    assert out.u == {0, 1, 3}
    assert le(g, out)
    assert check_ugroup(out).ok
    assert sorted(a.offset for a in out.addr.values() if a.alpha == 3) == [0, 1]
    assert not out.standard and out.h is Z3


def test_domain_step_respects_the_allowed_set():
    g = standard_ugroup(Z3, [0, 1])
    with pytest.raises(SchemeError, match="outside the allowed set"):
        density_domain_step(g, 2, {0, 1})
    with pytest.raises(SchemeError, match="configured blocks"):
        density_domain_step(g, 70, None)


def lifted(move, g, w):
    """The image of a tracked word of g at the final node of the move, found
    through its unchanged address."""
    return move.ugroup.word_at(g.addr[g.node.canonical(w)])


def test_simplicity_tracked_shortcut():
    g = standard_ugroup(Z3, [0, 1])
    move = density_simplicity_step(g, g.node.parse("f0:1"),
                                   g.node.parse("f0:1"))
    assert move.case == "tracked" and not move.extended
    assert replay_simplicity(move, g.node.parse("f0:1"), g.node.parse("f0:1"))


def test_simplicity_finite_both():
    g = standard_ugroup(Z3, [0, 1])
    x, y = g.node.parse("f0:1"), g.node.parse("f0:2")
    move = density_simplicity_step(g, x, y)
    assert move.case == "finite-both"
    assert len(move.trace) == 4
    assert move.extended
    assert replay_simplicity(move, lifted(move, g, x), lifted(move, g, y))
    assert check_ugroup(move.ugroup).ok
    assert le(g, move.ugroup)


def test_simplicity_both_infinite():
    g = tracked_ugroup(Z3, [0, 1], ["f0:1 f1:1", "f0:2 f1:2"])
    x, y = g.node.parse("f0:1 f1:1"), g.node.parse("f0:2 f1:2")
    move = density_simplicity_step(g, x, y)
    assert move.case == "both-infinite"
    assert len(move.trace) == 1
    assert replay_simplicity(move, lifted(move, g, x), lifted(move, g, y))
    assert le(g, move.ugroup)


def test_simplicity_finite_x():
    g = tracked_ugroup(Z3, [0, 1], ["f0:1 f1:1"])
    x, y = g.node.parse("f0:1"), g.node.parse("f0:1 f1:1")
    move = density_simplicity_step(g, x, y)
    assert move.case == "finite-x"
    assert len(move.trace) == 2
    assert replay_simplicity(move, lifted(move, g, x), lifted(move, g, y))
    assert le(g, move.ugroup)


def test_simplicity_finite_y():
    g = tracked_ugroup(Z3, [0, 1], ["f0:1 f1:1"])
    x, y = g.node.parse("f0:1 f1:1"), g.node.parse("f0:1")
    move = density_simplicity_step(g, x, y)
    assert move.case == "finite-y"
    assert len(move.trace) == 2
    assert replay_simplicity(move, lifted(move, g, x), lifted(move, g, y))
    assert le(g, move.ugroup)


def renumbered(text):
    """text with its stable letters renamed t1, t2, ... in order of first
    appearance; the process numbers letters globally."""
    seen = {}
    return re.sub(r"t(\d+)", lambda m: "t%d" % seen.setdefault(
        m.group(1), len(seen) + 1), text)


# (case, h, extra tracked words on blocks {0, 1}, x, y, final node, trace,
# address map) for each of the step's five cases
PINNED_MOVES = [
    ("tracked", S3, [], "f0:1", "f0:3", "b0*b1",
     "f0:2 ^ 1",
     "0:0 1; 0:1 f0:1; 0:2 f0:2; 0:3 f0:3; 0:4 f0:4; 0:5 f0:5; "
     "1:0 f1:1; 1:1 f1:2; 1:2 f1:3; 1:3 f1:4; 1:4 f1:5"),
    ("both-infinite", Z3, ["f0:1 f1:1", "f0:2 f1:2"], "f0:1 f1:1",
     "f0:2 f1:2", "b0*b1+conj",
     "t1 ^ 1",
     "0:0 1; 0:1 f0:65; 0:2 f0:66; 1:0 f0:67; 1:1 f0:68; "
     "1:2 f0:2; 1:3 f0:1; 1:4 f0:3; 1:5 f0:34; 1:6 t1; "
     "1:7 t1^-1"),
    ("finite-x", Z3, ["f0:1 f1:1"], "f0:1", "f0:1 f1:1", "b0*b1+conj",
     "t1 ^ 1 | f0:65 ^ -1",
     "0:0 1; 0:1 f0:65; 0:2 f0:66; 0:3 t1; 0:4 t1^-1; "
     "1:0 f0:68; 1:1 f0:69; 1:2 f0:1; 1:3 f0:3"),
    ("finite-y", Z3, ["f0:1 f1:1"], "f0:1 f1:1", "f0:1", "b0*b1*w+conj",
     "t1 ^ 1 | f0:65 t1 ^ 1",
     "0:0 1; 0:1 f0:66; 0:2 f0:70; 1:0 f0:71; 1:1 f0:72; "
     "1:2 f0:2; 1:3 f0:34; 1:4 f0:65; 1:5 f0:67; 1:6 t1; "
     "1:7 t1^-1"),
    ("finite-both", Z3, [], "f0:1", "f0:2", "b0*b1*w*v+conj",
     "t1 ^ 1 | f0:65 t1 ^ 1 | f0:66 ^ -1 | f0:67 ^ -1",
     "0:0 1; 0:1 f0:72; 0:2 f0:68; 0:3 f0:65; 0:4 f0:69; "
     "0:5 f0:67; 0:6 f0:77; 0:7 t1; 0:8 t1^-1; 1:0 f0:80; "
     "1:1 f0:81"),
]


@pytest.mark.parametrize("case,h,extras,x,y,name,trace,addrs", PINNED_MOVES,
                         ids=[m[0] for m in PINNED_MOVES])
def test_simplicity_moves_keep_their_pinned_output(case, h, extras, x, y,
                                                   name, trace, addrs):
    """Registry indices show in the output, so this pins the order in which
    the step interns words as well as what it builds."""
    g = tracked_ugroup(h, [0, 1], extras)
    move = density_simplicity_step(g, g.node.parse(x), g.node.parse(y))
    final = move.ugroup
    fmt = final.node.format
    got = renumbered(
        " | ".join(f"{fmt(c)} ^ {e}" for c, e in move.trace) + " || " +
        "; ".join(f"{final.addr[w]} {fmt(w)}"
                  for w in sorted(final.addr, key=final.addr.get)))
    assert (move.case, final.node.name, got) == (case, name,
                                                 trace + " || " + addrs)


def test_simplicity_requires_tracked_nontrivial_inputs():
    g = standard_ugroup(Z3, [0, 1])
    with pytest.raises(SchemeError, match="tracked"):
        density_simplicity_step(g, g.node.parse("f0:1 f1:1 f0:1"),
                                g.node.parse("f0:1"))
    with pytest.raises(SchemeError, match="nontrivial"):
        density_simplicity_step(g, EMPTY, g.node.parse("f0:1"))


# -- derived tables and table-read checks against word-by-word oracles ---------------

def oracle_tables(g):
    """The partial tables multiplied word by word, as a group built from
    scratch would hold them."""
    node, mul, inv = g.node, {}, {}
    for w1, a1 in g.addr.items():
        wi = node.canonical(node.invert_word(w1))
        if wi in g.addr:
            inv[a1] = g.addr[wi]
        for w2, a2 in g.addr.items():
            got = g.addr.get(node.canonical(node.mul_words(w1, w2)))
            if got is not None:
                mul[(a1, a2)] = got
    return mul, inv


def oracle_check(g):
    """check_ugroup recomputing every inverse and product at every boundary
    from the words, as (ok, clause, detail)."""
    if EMPTY not in g.addr:
        return False, "a", "the identity is not tracked"
    for w, a in g.addr.items():
        if a.alpha not in g.u:
            return False, "a", f"element at {a} uses a block outside u"
    node = g.node
    for boundary in sorted(g.u):
        delta = Address(boundary, 0)
        below = {w: a for w, a in g.addr.items() if a < delta}
        for w, a in below.items():
            ai = g.addr.get(node.canonical(node.invert_word(w)))
            if ai is None or not ai < delta:
                return (False, "b", f"inverse of the element at {a} escapes "
                                    f"the boundary {boundary}")
        for w1, a1 in below.items():
            for w2, a2 in below.items():
                ap = g.addr.get(node.canonical(node.mul_words(w1, w2)))
                if ap is not None and not ap < delta:
                    return (False, "b", f"product of elements at {a1}, {a2} "
                                        f"escapes the boundary {boundary}")
    for b in g.u:
        if not any(a.alpha == b for a in g.addr.values()):
            return False, "c", f"no element realizes block {b}"
    return True, None, "all clauses hold"


def derived_groups(g):
    """Restrictions at every boundary, filters to every block set holding 0,
    a re-addressing, and one restriction of that re-addressing."""
    us = sorted(g.u)
    out = [restrict(g, alpha) for alpha in range(1, us[-1] + 2)]
    for mask in range(2 ** (len(us) - 1)):
        keep = {0} | {b for i, b in enumerate(us[1:]) if mask >> i & 1}
        out.append(block_filter(g, keep))
    img = order_iso_image(g, dict(zip(us, [0] + [b + 7 for b in us[1:]])))
    return out + [img, restrict(img, 8)]


def density_output():
    g = standard_ugroup(Z3, [0, 2])
    move = density_simplicity_step(g, g.node.parse("f1:1"),
                                   g.node.parse("f0:2"))
    assert move.case == "finite-both"
    return move.ugroup


@pytest.mark.parametrize("h,master", [(Z3, [0, 1, 2, 4]), (S3, [0, 2, 3]),
                                      (A4, [0, 1, 3])],
                         ids=["z3", "s3", "a4"])
def test_derived_tables_equal_a_fresh_build(h, master):
    for g in standard_family(h, master):
        for d in derived_groups(g):
            assert d.node is g.node
            assert d._built_tables() == oracle_tables(d)


def test_derived_tables_of_a_density_move_equal_a_fresh_build():
    final = density_output()
    for d in derived_groups(final):
        assert d._built_tables() == oracle_tables(d)
    assert final._built_tables() == oracle_tables(final)


def concat_tables(g):
    """The partial tables as they were multiplied before products spliced:
    the canonical form of each merged word pair, in the same entry order."""
    node, mul, inv = g.node, {}, {}
    items = list(g.addr.items())
    for w1, a1 in items:
        wi = node.canonical(node.invert_word(w1))
        if wi in g.addr:
            inv[a1] = g.addr[wi]
        for w2, a2 in items:
            got = g.addr.get(node.canonical(W.concat(w1, w2, node.ops)))
            if got is not None:
                mul[(a1, a2)] = got
    return mul, inv


def test_multiplied_tables_equal_the_concat_built_ones():
    """Entry for entry and in dict order, on standard groups, tracked words
    with products of two syllables and more, and a density move's stable
    letter tower."""
    groups = [standard_ugroup(h, blocks) for h, blocks in
              ((Z3, [0, 1, 3]), (S3, [0, 2]), (A4, [0, 1]))]
    groups += [tracked_ugroup(Z3, [0, 1], ["f0:1 f1:1", "f1:2 f0:1 f1:1"]),
               tracked_ugroup(S3, [0, 1], ["f0:1 f1:3"]),
               density_output()]
    for g in groups:
        got, want = g._multiplied_tables(), concat_tables(g)
        assert got == want
        assert [list(t) for t in got] == [list(t) for t in want]
    assert any(len(w) > 1 for g in groups for w in g.addr)


def per_kind_tracked_words(node):
    """`_tracked_words` as one branch per node kind: a base node's elements,
    an amalgam's two factors, an HNN base and then its letter, and then the
    registry, each with its inverse."""
    out = {}

    def add(w):
        c = node.canonical(w)
        if c not in out:
            out[c] = True
            ci = node.canonical(node.invert_word(c))
            if ci not in out:
                out[ci] = True

    add(EMPTY)
    if isinstance(node, BaseNode):
        for e in range(node.group.n):
            add(node.elem_word(e))
        return list(out)
    if isinstance(node, AmalgamNode):
        for side in (0, 1):
            fac = node.factors[side]
            count = fac.elem_count()
            for e in range(count if count is not None else len(fac._rwords)):
                add(SyllableWord([(FACTOR, side, e)]))
    elif isinstance(node, HnnNode):
        count = node.base.elem_count()
        for e in range(count if count is not None
                       else len(node.base._rwords)):
            add(SyllableWord([(FACTOR, 0, e)]))
        add(node.letter_word())
    for w in list(node._rwords):
        add(w)
    return list(out)


def test_tracked_words_match_the_per_kind_oracle():
    """One loop over the factors gives the per-kind lists, order included,
    on a base node, an amalgam, a fresh HNN node whose registry lacks its
    letter, and a density move's tower over an infinite base."""
    fresh_hnn = HnnNode(BaseNode(fingrp.cyclic(6)),
                        ExplicitShared([0, 3], [0, 3]))
    assert fresh_hnn.letter_word() not in fresh_hnn._rwords
    for node in (BaseNode(S3), standard_ugroup(Z3, [0, 1]).node, fresh_hnn,
                 density_output().node):
        want = per_kind_tracked_words(node)
        assert universe._tracked_words(node) == want
    assert fresh_hnn.letter_word() in universe._tracked_words(fresh_hnn)


def random_placement(h, rng):
    """h's elements on random addresses in blocks 0..2, identity at the
    origin; most such groups fail clause (b) somewhere."""
    node = BaseNode(h)
    addr = {EMPTY: Address(0, 0)}
    free = [Address(b, o) for b in range(3) for o in range(h.n)][1:]
    for a, e in zip(rng.sample(free, h.n - 1),
                    [e for e in range(h.n) if not h.is_identity(e)]):
        addr[node.elem_word(e)] = a
    return UGroup(node, addr, [0, 1, 2])


def test_check_ugroup_matches_the_word_oracle():
    groups = []
    for h, master in ((Z3, [0, 1, 3]), (S3, [0, 2])):
        for g in standard_family(h, master):
            groups += [g] + derived_groups(g)
    groups.append(density_output())
    groups.append(tracked_ugroup(Z3, [0, 1], ["f0:1 f1:1"]))
    rng = random.Random(11)
    groups += [random_placement(h, rng) for h in (Z3, S3, A4) for _ in range(12)]
    clauses = set()
    for g in groups:
        rep = check_ugroup(g)
        assert (rep.ok, rep.clause, rep.detail) == oracle_check(g)
        clauses.add((rep.clause, rep.detail.split(" ")[0]))
    assert {(None, "all"), ("b", "inverse"), ("b", "product")} <= clauses


def registry_sizes(node):
    """len(_rwords) of every node in the tower, in a fixed walk order."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append(len(n._rwords))
        if n.kind != "base":
            todo.extend(n.factors)
    return out


@pytest.mark.parametrize("name", ["z3", "s3", "a4", "z5", "q8"])
def test_standard_tables_read_from_h_match_word_products(name):
    """The closed-form tables equal the word-by-word ones entry for entry
    and in dict order, and build without interning a word anywhere in the
    tower."""
    h = fingrp.named_group(name)
    extra = [1, 3, 5, 6]
    for mask in range(2 ** len(extra)):
        blocks = [0] + [b for i, b in enumerate(extra) if mask >> i & 1]
        g = standard_ugroup(h, blocks)
        before = registry_sizes(g.node)
        mul, inv = g._built_tables()
        assert registry_sizes(g.node) == before, blocks
        assert (mul, inv) == oracle_tables(g), blocks
        fresh_mul, fresh_inv = standard_ugroup(h, blocks)._multiplied_tables()
        assert list(mul) == list(fresh_mul), blocks
        assert list(inv) == list(fresh_inv), blocks
