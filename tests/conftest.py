import pytest

from groupforge import amalgam, fingrp
from groupforge.amalgam import (AmalgamNode, BaseNode, CyclicShared,
                                ExplicitShared, HnnNode)


def is_isomorphic(a: fingrp.FiniteGroup, b: fingrp.FiniteGroup) -> bool:
    """Equal orders and an injective homomorphism a -> b."""
    return a.n == b.n and next(
        fingrp.enumerate_homs(a, b, injective=True), None) is not None


def free_product(n1: int, n2: int) -> AmalgamNode:
    """Z/n1 * Z/n2 with nothing identified beyond the identities."""
    left = BaseNode(fingrp.cyclic(n1), name="a")
    right = BaseNode(fingrp.cyclic(n2), name="b")
    return AmalgamNode(left, right, ExplicitShared([0], [0]))


def z6_pair(twist: bool = False) -> AmalgamNode:
    """Z/6 * Z/6 glued along the even elements, optionally by inversion."""
    left = BaseNode(fingrp.cyclic(6), name="a")
    right = BaseNode(fingrp.cyclic(6), name="b")
    rhs = [0, 4, 2] if twist else [0, 2, 4]
    return AmalgamNode(left, right, ExplicitShared([0, 2, 4], rhs))


def z6_hnn() -> HnnNode:
    """Z/6 with a stable letter identifying the subgroup {0, 3} with itself."""
    base = BaseNode(fingrp.cyclic(6), name="c")
    return HnnNode(base, ExplicitShared([0, 3], [0, 3]))


@pytest.fixture
def fp57():
    return free_product(5, 7)


@pytest.fixture
def fp35():
    return free_product(3, 5)


@pytest.fixture
def amal66():
    return z6_pair()


@pytest.fixture
def hnn6():
    return z6_hnn()


def s3xz2_pair() -> AmalgamNode:
    """Two copies of S3 x Z2 glued along the common central involution."""
    g = fingrp.named_group("s3xz2")
    left = BaseNode(g, name="l")
    right = BaseNode(g, name="r")
    return AmalgamNode(left, right, ExplicitShared([0, 1], [0, 1]))


@pytest.fixture
def twist_node():
    return s3xz2_pair()
