"""Finite-group layer: table validation, hom enumeration, automorphisms,
and the suitability / completeness / localization verdicts.

The automorphism counts are checked against a from-scratch oracle that tries
every bijection of the element set, so the backtracking search in the module
is never trusted on its own word for the small cases.  The table-driven
searches are also compared, result for result, with oracles that run the
plain per-candidate and per-pair loops they replace.
"""

import math
import random
from itertools import permutations, product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupforge import fingrp
from groupforge.fingrp import (AutGroup, BudgetExceeded, FiniteGroup,
                               GroupError, GroupHom, alternating,
                               automorphism_group,
                               cyclic, dihedral, direct_product,
                               enumerate_homs, h_socle, identity_hom,
                               is_complete, is_localization,
                               is_suitable, load_group, named_group,
                               parse_group_text, perm_group, quaternion8,
                               symmetric, trivial)

from conftest import is_isomorphic


def brute_aut_count(g: FiniteGroup) -> int:
    """Count table-preserving bijections directly.  Exponential; keep n small."""
    count = 0
    for perm in permutations(range(g.n)):
        if perm[g.identity] != g.identity:
            continue
        if all(perm[g.mul(x, y)] == g.mul(perm[x], perm[y])
               for x in range(g.n) for y in range(g.n)):
            count += 1
    return count


# frozen from the bijection oracle above
AUT_ORDERS = {
    "z2": 1, "z3": 2, "z4": 2, "z5": 4, "z6": 2,
    "s3": 6, "d4": 8, "q8": 24,
}


@pytest.mark.parametrize("spec,expected", sorted(AUT_ORDERS.items()))
def test_automorphism_count_matches_bijection_oracle(spec, expected):
    g = named_group(spec)
    assert brute_aut_count(g) == expected
    assert automorphism_group(g).n == expected


def test_aut_a5_order():
    assert automorphism_group(alternating(5)).n == 120


def test_aut_group_is_a_group():
    aut = automorphism_group(symmetric(3))
    emb = aut.inner_embedding()
    assert emb.check() and len(set(emb.img)) == emb.src.n == 6


@pytest.mark.parametrize("n", [1, 2, 7, 30, 5040])
def test_cyclic_table_is_the_sum_mod_n(n):
    """The rotated-window table equals the modular sum table in value,
    dtype and contiguity."""
    ar = np.arange(n, dtype=np.int32)
    want = (ar[:, None] + ar) % n
    got = cyclic(n).table
    assert got.dtype == want.dtype == np.int32
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous


def test_cyclic_hom_count_matches_gcd():
    """The number of maps Z/m -> Z/n is gcd(m, n)."""
    for m in range(1, 8):
        for n in range(1, 8):
            homs = list(enumerate_homs(cyclic(m), cyclic(n)))
            assert len(homs) == math.gcd(m, n), (m, n)


def test_hom_images_z2_to_z4():
    imgs = sorted(h.img for h in enumerate_homs(cyclic(2), cyclic(4)))
    assert imgs == [(0, 0), (0, 2)]
    inj = [h.img for h in enumerate_homs(cyclic(2), cyclic(4), injective=True)]
    assert inj == [(0, 2)]


def test_hom_check_and_composition():
    eta = GroupHom(cyclic(2), cyclic(4), (0, 2))
    assert eta.check() and len(set(eta.img)) == eta.src.n
    assert not eta.is_surjective()
    assert eta.image_subgroup() == (0, 2)
    double = GroupHom(cyclic(4), cyclic(4), (0, 2, 0, 2))
    assert eta.then(double).img == (0, 0)
    assert identity_hom(cyclic(3)).img == (0, 1, 2)


def test_bad_hom_rejected():
    assert not GroupHom(cyclic(2), cyclic(4), (0, 1)).check()
    with pytest.raises(GroupError):
        GroupHom(cyclic(2), cyclic(4), (0,))


def test_group_orders_and_centers():
    assert symmetric(3).n == 6 and len(symmetric(3).center()) == 1
    assert alternating(4).n == 12
    assert dihedral(4).n == 8 and len(dihedral(4).center()) == 2
    assert quaternion8().n == 8 and len(quaternion8().center()) == 2
    assert trivial().n == 1
    g = direct_product(symmetric(3), cyclic(2))
    assert g.n == 12 and len(g.center()) == 2


def oracle_center(g):
    """The elements whose row of the table equals their column."""
    T = g.table
    return tuple(a for a in range(g.n) if (T[a] == T[:, a]).all())


CENTER_GROUPS = (["1", "q8"] + [f"z{k}" for k in range(1, 13)]
                 + [f"s{k}" for k in range(1, 8)]
                 + [f"a{k}" for k in range(3, 8)]
                 + [f"d{k}" for k in range(3, 13)]
                 + ["s3xz2", "z2xz2xz2", "q8xz3", "s3xs3", "d4xz3", "a4xz2",
                    "d2520", "z5040"])


@pytest.mark.parametrize("name", CENTER_GROUPS)
def test_center_matches_the_row_column_oracle(name):
    """Narrowing by a growing generating set keeps exactly the central
    elements, in index order."""
    g = named_group(name)
    assert g.center() == oracle_center(g)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["s3", "q8", "d4", "s3xz2", "q8xz3", "a4xz2", "z2xz6"]),
       st.randoms(use_true_random=False))
def test_center_under_relabelling(name, rnd):
    """Relabelled tables put the identity and the generators anywhere."""
    g = named_group(name)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    table = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            table[perm[a]][perm[b]] = perm[int(g.table[a, b])]
    h = FiniteGroup(table, name=name)
    assert h.center() == oracle_center(h)
    assert len(h.center()) == len(g.center())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["s4", "a5", "d12", "q8xz3", "z2xz6", "s3xs3"]),
       st.randoms(use_true_random=False))
def test_join_grows_the_generated_subgroup(name, rnd):
    """Each join returns exactly the subgroup the generators so far
    generate, each element once."""
    g = named_group(name)
    sub = np.array([g.identity])
    inside = np.zeros(g.n, dtype=bool)
    inside[g.identity] = True
    gens = []
    while len(sub) < g.n:
        gens.append(rnd.choice([a for a in range(g.n) if not inside[a]]))
        sub = g._join(sub, inside, gens)
        want = g.subgroup_closure(gens)
        assert sorted(sub.tolist()) == list(want)
        assert np.flatnonzero(inside).tolist() == list(want)


@given(st.integers(2, 12), st.integers(0, 11))
def test_cyclic_power_arithmetic(n, a):
    g = cyclic(n)
    a %= n
    assert g.order_of(a) == n // math.gcd(a, n)
    assert g.order_of(1) == n
    assert g.inverse(a) == (-a) % n


def test_subgroup_closure():
    s3 = symmetric(3)
    transposition = next(a for a in range(6) if s3.order_of(a) == 2)
    three_cycle = next(a for a in range(6) if s3.order_of(a) == 3)
    assert len(s3.subgroup_closure([transposition])) == 2
    assert len(s3.subgroup_closure([transposition, three_cycle])) == 6
    sub = set(s3.subgroup_closure([three_cycle]))
    assert s3.identity in sub
    assert all(s3.mul(a, b) in sub for a in sub for b in sub)


def test_generating_set_generates():
    for g in (symmetric(4), quaternion8(), cyclic(12)):
        gens = g.generating_set()
        assert len(g.subgroup_closure(gens)) == g.n


def test_generating_set_is_found_once_per_group(monkeypatch):
    """The memoised tuple is the one a fresh group finds, and a suitability
    check, which asks three times, finds it once."""
    found = []
    find = FiniteGroup._find_generators

    def spy(self):
        found.append(self)
        return find(self)

    monkeypatch.setattr(FiniteGroup, "_find_generators", spy)
    for g in (symmetric(4), quaternion8(), cyclic(12), alternating(5)):
        gens = g.generating_set()
        assert g.generating_set() is gens
        assert gens == FiniteGroup(g.table, name=g.name).generating_set()
    h = alternating(5)
    found.clear()
    assert is_suitable(h).ok
    assert sum(g is h for g in found) == 1


def test_completeness_verdicts():
    assert is_complete(symmetric(3)).ok
    assert is_complete(symmetric(5)).ok
    r = is_complete(cyclic(2))
    assert not r.ok and r.center_order == 2
    r = is_complete(alternating(5))
    assert not r.ok and r.outer_witness is not None


def test_suitability_verdicts():
    assert is_suitable(symmetric(3)).ok
    for spec in ("z2", "z4", "q8"):
        r = is_suitable(named_group(spec))
        assert not r.ok and r.witness


def test_socle_sizes():
    assert len(h_socle(cyclic(2), symmetric(3))) == 6
    assert len(h_socle(cyclic(3), cyclic(2))) == 1
    assert h_socle(cyclic(2), cyclic(4)) == (0, 2)


def test_localization_verdicts():
    ok = is_localization(identity_hom(cyclic(2)))
    assert ok.ok and ok.witness is None
    bad = is_localization(GroupHom(cyclic(2), cyclic(4), (0, 2)))
    assert not bad.ok and "extensions" in bad.witness


def test_localization_counts():
    r = is_localization(identity_hom(cyclic(2)))
    assert r.hom_count == 2 and r.endo_count == 2


def test_budget_raises_and_subclasses():
    assert issubclass(BudgetExceeded, GroupError)
    with pytest.raises(BudgetExceeded):
        automorphism_group(alternating(5), budget=2)


def oracle_inverse_error(table):
    """The per-element scan that _build_inverses replaced: the message for
    the first element whose row holds the identity other than once."""
    identity = next(e for e in range(len(table))
                    if list(table[e]) == list(range(len(table)))
                    and [r[e] for r in table] == list(range(len(table))))
    for a, row in enumerate(table):
        if sum(v == identity for v in row) != 1:
            return f"element {a} lacks a unique inverse"
    return None


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 0, 0], [2, 0, 1]],     # row 1 holds the identity twice
    [[0, 1, 2], [1, 2, 1], [2, 0, 0]],     # row 1 never; row 2 twice
    [[0, 1, 2], [1, 2, 0], [2, 1, 1]],     # only the last row is bad
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 1], [3, 2, 1, 1]],
])
def test_inverse_error_names_the_first_bad_element(table):
    want = oracle_inverse_error(table)
    assert want is not None
    with pytest.raises(GroupError) as err:
        FiniteGroup(table, check=False)
    assert str(err.value) == want


def test_inverses_match_the_per_element_scan():
    for spec in ("s4", "q8", "z2xz4", "d5"):
        g = named_group(spec)
        assert g.inv.tolist() == [
            int(np.nonzero(g.table[a] == g.identity)[0][0])
            for a in range(g.n)]


def test_table_validation():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [0, 1]])          # no identity row/column pair
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])   # not associative


def test_parse_table_format():
    text = """group k3
order 3
table
0 1 2
1 2 0
2 0 1
"""
    g = parse_group_text(text)
    assert g.n == 3 and g.name == "k3"
    assert is_isomorphic(g, cyclic(3))


def test_parse_perms_format():
    text = """group sym3
perms 3
1 0 2
1 2 0
"""
    g = parse_group_text(text)
    assert g.n == 6
    assert is_isomorphic(g, symmetric(3))


def test_parse_perms_order_crosscheck():
    bad = "group g\norder 5\nperms 3\n1 0 2\n1 2 0\n"
    with pytest.raises(GroupError, match="declared order 5"):
        parse_group_text(bad)


def test_parse_rejects_bad_table():
    bad = """group broken
order 3
table
0 1 2
1 2 0
"""
    with pytest.raises(GroupError):
        parse_group_text(bad)


def test_parse_reports_line_numbers():
    bad = """group broken
order 2
table
0 1
1 x
"""
    with pytest.raises(GroupError, match="line 5"):
        parse_group_text(bad)


def test_load_group_and_named_specs(tmp_path):
    path = tmp_path / "k4.grp"
    path.write_text("group k4\norder 4\ntable\n0 1 2 3\n1 0 3 2\n"
                    "2 3 0 1\n3 2 1 0\n")
    g = load_group(str(path))
    assert g.n == 4 and all(g.mul(a, a) == 0 for a in range(4))
    assert named_group(str(path)).n == 4
    assert named_group("s3xz2").n == 12
    assert named_group("a4").n == 12
    assert named_group("1").n == 1
    with pytest.raises(GroupError):
        named_group("nosuchgroup99x")


def test_load_group_names_a_path_it_cannot_read(tmp_path):
    with pytest.raises(GroupError) as err:
        load_group(str(tmp_path))
    assert str(err.value) == (f"cannot read group file {tmp_path}: "
                              f"Is a directory")
    path = tmp_path / "bin.grp"
    path.write_bytes(b"group g\xff\n")
    with pytest.raises(GroupError) as err:
        load_group(str(path))
    assert str(err.value) == (f"cannot read group file {path}: not UTF-8 "
                              f"text")


# -- the table-driven searches against the loops they replace ---------------

def oracle_homs(src, dst, injective=False):
    """Every candidate extended in full and checked on the whole table."""
    gens = src.generating_set()
    if not gens:
        return [(dst.identity,) * src.n]
    orders = dst.element_orders()
    cands = []
    for gen in gens:
        o = src.order_of(gen)
        cands.append([d for d in range(dst.n)
                      if (orders[d] == o if injective else o % orders[d] == 0)])
    steps = fingrp._bfs_expressions(src, gens)
    out = []
    for choice in iproduct(*cands):
        img = [None] * src.n
        img[src.identity] = dst.identity
        for elem, parent, pos in steps:
            img[elem] = dst.mul(img[parent], choice[pos])
        if injective and len(set(img)) != src.n:
            continue
        if all(img[src.mul(a, b)] == dst.mul(img[a], img[b])
               for a in range(src.n) for b in range(src.n)):
            out.append(tuple(img))
    return out


def oracle_map_index(aut):
    return {tuple(int(v) for v in m): i for i, m in enumerate(aut.maps)}


def oracle_aut_table(maps):
    index = {m: i for i, m in enumerate(maps)}
    return [[index[tuple(b[x] for x in a)] for b in maps] for a in maps]


def oracle_inner_embedding(aut):
    src, index = aut.source, oracle_map_index(aut)
    return tuple(index[tuple(src.conj(x, g) for x in range(src.n))]
                 for g in range(src.n))


def oracle_is_complete(g):
    center = g.center()
    aut = automorphism_group(g)
    inner = set(oracle_inner_embedding(aut))
    outer = next((i for i in range(aut.n) if i not in inner), None)
    return fingrp.CompletenessReport(g.name, len(center) == 1 and outer is None,
                                     len(center), aut.n, outer)


def oracle_is_suitable(h):
    center = h.center()
    if len(center) != 1:
        z = next(z for z in center if z != h.identity)
        return fingrp.SuitabilityReport(h.name, False, True, False, False,
                                        False, 0, f"central element {z}")
    aut = automorphism_group(h)
    iota = oracle_inner_embedding(aut)
    inner_set = tuple(sorted(set(iota)))
    witness = None
    unique_copy = True
    for img in oracle_homs(h, aut, injective=True):
        image = tuple(sorted(set(img)))
        if image != inner_set:
            unique_copy = False
            witness = f"embedding with image {image} != inner copy"
            break
    extends_inner = True
    if unique_copy:
        gens = h.generating_set()
        for a in range(aut.n):
            target = {gen: iota[aut.maps[a][gen]] for gen in gens}
            if not any(all(aut.conj(iota[gen], b) == t
                           for gen, t in target.items())
                       for b in range(aut.n)):
                extends_inner = False
                witness = f"automorphism {a} does not extend to an inner one"
                break
    return fingrp.SuitabilityReport(h.name, unique_copy and extends_inner,
                                    True, True, unique_copy, extends_inner,
                                    aut.n, witness)


def oracle_is_localization(eta):
    g = eta.dst
    endos = oracle_homs(g, g)
    homs = oracle_homs(eta.src, g)
    for phi in homs:
        exts = [e for e in endos if tuple(e[x] for x in eta.img) == phi]
        if len(exts) != 1:
            kind = "no extension" if not exts else f"{len(exts)} extensions"
            return fingrp.LocalizationReport(
                False, len(homs), len(endos),
                f"map with images {phi} has {kind}")
    return fingrp.LocalizationReport(True, len(homs), len(endos), None)


# z2xz2xz2 needs three generators, so its candidates pass the pair screen
# and then extend over the third generator's images
HOM_POOL = ["1", "z2", "z3", "z4", "z6", "z2xz2", "z2xz4", "z3xz3",
            "z2xz2xz2", "s3", "d4", "q8", "a4", "s4"]


@pytest.mark.parametrize("src", HOM_POOL)
def test_enumerate_homs_matches_full_table_oracle(src):
    h = named_group(src)
    for dst in HOM_POOL:
        g = named_group(dst)
        for injective in (False, True):
            got = [hom.img for hom in enumerate_homs(h, g, injective=injective)]
            assert got == oracle_homs(h, g, injective), (src, dst, injective)


@pytest.mark.parametrize("spec", ["a5", "s5"])
def test_pruned_search_matches_oracle_on_simple_groups(spec):
    # the product-order screen must keep every homomorphism and their order,
    # into the group itself and into its automorphism group
    h = named_group(spec)
    for dst in (h, automorphism_group(h)):
        for injective in (False, True):
            got = [hom.img for hom in enumerate_homs(h, dst,
                                                     injective=injective)]
            assert got == oracle_homs(h, dst, injective), (
                spec, dst.name, injective)


def test_budget_is_checked_before_each_phase():
    a5 = alternating(5)
    # A5 -> A5 injectively: 24 x 24 candidate pairs of order-5 images, of
    # which the screen keeps those whose products have the right orders
    gens = a5.generating_set()
    o_mul = a5.order_of(a5.mul(gens[0], gens[1]))
    o_div = a5.order_of(a5.mul(gens[0], a5.inverse(gens[1])))
    fives = [x for x in range(a5.n) if a5.order_of(x) == 5]
    kept = sum(a5.order_of(a5.mul(x, y)) == o_mul
               and a5.order_of(a5.mul(x, a5.inverse(y))) == o_div
               for x in fives for y in fives)
    assert (len(fives), kept) == (24, 120)
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_homs(a5, a5, injective=True, budget=575))
    assert str(err.value) == ("homomorphism search needs ~576 operations, "
                              "budget 575")
    extension = kept * a5.n * len(gens)
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_homs(a5, a5, injective=True, budget=extension - 1))
    assert str(err.value) == (f"homomorphism search needs ~{extension} "
                              f"operations, budget {extension - 1}")
    assert len(list(enumerate_homs(a5, a5, injective=True,
                                   budget=extension))) == 120


def test_row_blocks_do_not_change_results(monkeypatch):
    groups = [named_group(spec) for spec in ("s4", "a5", "z2xz4")]
    want = [([h.img for h in enumerate_homs(g, g)],
             automorphism_group(g).table.tolist()) for g in groups]
    monkeypatch.setattr(fingrp, "BLOCK_ENTRIES", 7)
    got = [([h.img for h in enumerate_homs(g, g)],
            automorphism_group(g).table.tolist()) for g in groups]
    assert got == want


@pytest.mark.parametrize("spec", ["s3", "d4", "q8", "a4", "s4", "a5", "s5"])
def test_aut_table_matches_tuple_composition(spec):
    aut = automorphism_group(named_group(spec))
    maps = [tuple(int(v) for v in m) for m in aut.maps]
    assert aut.table.tolist() == oracle_aut_table(maps)
    assert aut.inner_embedding().img == oracle_inner_embedding(aut)


def test_aut_table_of_shuffled_maps():
    maps = sorted(automorphism_group(named_group("s4")).maps.tolist())
    maps = [tuple(m) for m in maps[7:] + maps[:7]]
    aut = AutGroup(named_group("s4"), maps)
    assert aut.table.tolist() == oracle_aut_table(maps)


def test_aut_group_rejects_maps_not_closed_under_composition():
    s3 = symmetric(3)
    maps = [tuple(m) for m in automorphism_group(s3).maps.tolist()]
    with pytest.raises(GroupError, match="not among the maps"):
        AutGroup(s3, maps[:4])
    with pytest.raises(GroupError, match="repeats a map"):
        AutGroup(s3, maps + maps[:1])
    inner = AutGroup(s3, [maps[0]])   # only the identity map
    with pytest.raises(GroupError, match="conjugation by"):
        inner.inner_embedding()


def oracle_missing_composite(maps):
    """The whole-row lookup AutGroup's table used before maps were keyed by
    their generator images: the first (i, j), in row-major order, whose
    composite map i then map j is none of the maps, or None."""
    M = np.ascontiguousarray(maps, dtype=np.int32)
    key = np.dtype((np.void, M.itemsize * M.shape[1]))
    keys = np.sort(M.view(key).ravel())
    for i in range(len(M)):
        rows = np.ascontiguousarray(M[:, M[i]]).view(key).ravel()
        pos = np.searchsorted(keys, rows)
        pos[pos == len(keys)] = 0
        hit = keys[pos] == rows
        if not hit.all():
            return i, int(np.argmin(hit))
    return None


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("spec", ["s3", "d4", "s4", "a5"])
def test_missing_composite_names_the_whole_row_witness(spec, block,
                                                       monkeypatch):
    g = named_group(spec)
    maps = [tuple(m) for m in automorphism_group(g).maps.tolist()]
    if block:
        monkeypatch.setattr(fingrp, "BLOCK_ENTRIES", block)
    rng = random.Random(spec)
    missing = 0
    for _ in range(8):
        sub = rng.sample(maps, rng.randint(2, len(maps) - 1))
        want = oracle_missing_composite(sub)
        if want is None:   # a subgroup: the table builds
            assert AutGroup(g, sub).n == len(sub)
            continue
        missing += 1
        with pytest.raises(GroupError) as err:
            AutGroup(g, sub)
        assert str(err.value) == (f"map {want[0]} then map {want[1]} is not "
                                  f"among the maps")
    assert missing


def test_aut_group_rejects_maps_that_agree_on_the_generators():
    s3 = symmetric(3)
    gens = s3.generating_set()
    a, b = [x for x in range(s3.n) if x != s3.identity and x not in gens][:2]
    swapped = list(range(s3.n))
    swapped[a], swapped[b] = b, a
    with pytest.raises(GroupError) as err:
        AutGroup(s3, [tuple(range(s3.n)), tuple(swapped)])
    assert str(err.value) == ("maps 0 and 1 agree on the generators but "
                              "differ, so they are not both homomorphisms")


# s3xs3 has a second copy of itself in its automorphism group, which
# exercises the unique-copy witness; d5 and d7 are centerless
REPORT_GROUPS = sorted(set(AUT_ORDERS) | {"s4", "a4", "a5", "s5", "z2xz2",
                                          "s3xs3", "d5", "d7", "s3xz2"})


@pytest.mark.parametrize("spec", REPORT_GROUPS)
def test_suitable_and_complete_reports_match_oracle(spec):
    g = named_group(spec)
    assert is_complete(g) == oracle_is_complete(g)
    assert is_suitable(g) == oracle_is_suitable(g)


SMALL_ABELIAN = ["z2", "z3", "z4", "z5", "z6", "z7", "z8", "z2xz2",
                 "z2xz4", "z3xz3"]


@pytest.mark.parametrize("dst", SMALL_ABELIAN)
def test_localization_matches_all_pairs_oracle(dst):
    g = named_group(dst)
    for src in SMALL_ABELIAN:
        h = named_group(src)
        for eta in enumerate_homs(h, g):
            assert is_localization(eta) == oracle_is_localization(eta), \
                (src, dst, eta.img)


# -- permutation groups against the pairwise composition they replace --------

def oracle_perm_table(generators):
    """Close the generators, then compose every pair of elements, as
    tuples."""
    def compose(p, q):  # p then q
        return tuple(q[i] for i in p)

    gens = [tuple(g) for g in generators]
    ident = tuple(range(len(gens[0])))
    elems, index = [ident], {ident: 0}
    i = 0
    while i < len(elems):
        p = elems[i]
        i += 1
        for g in gens:
            q = compose(p, g)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return [[index[compose(a, b)] for b in elems] for a in elems]


def named_perm_generators(spec, monkeypatch):
    """The generators the named constructor hands to perm_group."""
    seen = []

    def spy(generators, **kw):
        seen.append([tuple(g) for g in generators])
        return perm_group(generators, **kw)

    monkeypatch.setattr(fingrp, "perm_group", spy)
    g = named_group(spec)
    monkeypatch.undo()
    return g, seen[0]


@pytest.mark.parametrize("spec", ["s3", "s4", "s5", "a4", "a5", "d4", "d7",
                                  "s6"])
def test_perm_table_matches_pairwise_oracle(spec, monkeypatch):
    g, gens = named_perm_generators(spec, monkeypatch)
    assert g.table.tolist() == oracle_perm_table(gens)


def test_perms_file_table_matches_pairwise_oracle():
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    text = "group g\nperms 5\n" + "".join(
        " ".join(map(str, p)) + "\n" for p in gens)
    g = parse_group_text(text)
    assert g.n == 120
    assert g.table.tolist() == oracle_perm_table(gens)


@pytest.mark.parametrize("spec", ["s5", "d7", "a5"])
def test_perm_group_composes_once_per_element_and_generator(spec,
                                                            monkeypatch):
    g, gens = named_perm_generators(spec, monkeypatch)
    calls = []
    real = fingrp._perm_compose

    def counted(p, q):
        calls.append(1)
        return real(p, q)

    monkeypatch.setattr(fingrp, "_perm_compose", counted)
    assert perm_group(gens).n == g.n
    assert len(calls) == g.n * len(gens)
