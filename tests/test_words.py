"""Word-level invariants checked against a modular-arithmetic ops object,
so nothing here depends on the group or scheme layers."""

import pytest
from hypothesis import given, strategies as st

from groupforge.words import (EMPTY, FACTOR, LETTER, SyllableWord, concat,
                              format_word, invert, parse_word, reduced)


class ModOps:
    """Factor f is the integers mod moduli[f]."""

    def __init__(self, *moduli):
        self.moduli = moduli

    def mul(self, f, a, b):
        return (a + b) % self.moduli[f]

    def inv(self, f, a):
        return (-a) % self.moduli[f]

    def is_identity(self, f, a):
        return a % self.moduli[f] == 0


OPS = ModOps(5, 7)


def validate(w, ops) -> None:
    """Raise ValueError if w breaks the normalized-word invariants."""
    for i, syl in enumerate(w):
        kind, ident, val = syl
        if kind == FACTOR:
            if ops.is_identity(ident, val):
                raise ValueError(f"identity syllable at position {i}")
            if i and w[i - 1][0] == FACTOR and w[i - 1][1] == ident:
                raise ValueError(f"adjacent same-factor syllables at position {i}")
        elif kind == LETTER:
            if i and w[i - 1][0] == LETTER and w[i - 1][1] == ident and w[i - 1][2] == -val:
                raise ValueError(f"adjacent inverse letters at position {i}")
        else:
            raise ValueError(f"unknown syllable kind {kind!r}")

factor_syls = st.tuples(st.just(FACTOR), st.integers(0, 1),
                        st.integers(0, 6)).filter(
    lambda s: s[2] < OPS.moduli[s[1]])
letter_syls = st.tuples(st.just(LETTER), st.integers(0, 1),
                        st.sampled_from([1, -1]))
syllables = st.one_of(factor_syls, letter_syls)
raw_words = st.lists(syllables, max_size=12).map(SyllableWord)


def normalize(w):
    """Merge-normalize w: concatenation onto the empty word."""
    return concat(EMPTY, w, OPS)


norm_words = raw_words.map(normalize)


@given(raw_words)
def test_normalize_output_validates(w):
    """Whatever goes in, the merged word satisfies the invariants."""
    validate(normalize(w), OPS)


@given(raw_words)
def test_normalize_idempotent(w):
    n = normalize(w)
    assert normalize(n) == n


@given(norm_words, norm_words, norm_words)
def test_concat_associative(a, b, c):
    assert concat(concat(a, b, OPS), c, OPS) == concat(a, concat(b, c, OPS), OPS)


@given(norm_words)
def test_concat_identity(w):
    assert concat(w, EMPTY, OPS) == w
    assert concat(EMPTY, w, OPS) == w


@given(norm_words)
def test_invert_involution(w):
    assert invert(invert(w, OPS), OPS) == w


@given(norm_words)
def test_word_times_inverse_cancels(w):
    assert concat(w, invert(w, OPS), OPS) == EMPTY
    assert concat(invert(w, OPS), w, OPS) == EMPTY


class CountingOps(ModOps):
    """ModOps that records each inv call."""

    def __init__(self, *moduli):
        super().__init__(*moduli)
        self.inv_calls = []

    def inv(self, f, a):
        self.inv_calls.append((f, a))
        return super().inv(f, a)


def oracle_invert(w, ops):
    """The inverse by one inv call per syllable, right to left."""
    return [(FACTOR, i, ops.inv(i, v)) if k == FACTOR else (LETTER, i, -v)
            for k, i, v in reversed(w)]


@given(raw_words, st.sampled_from([None, 3, 17]))
def test_invert_matches_the_per_syllable_loop(w, at):
    """Same syllables and tag as one inv call per syllable, with one call per
    distinct factor syllable, in first-seen order from the right."""
    if at is not None:
        w = reduced(w, at)
    ops = CountingOps(5, 7)
    got = invert(w, ops)
    assert list(got) == oracle_invert(w, ModOps(5, 7))
    assert type(got) is type(w)
    assert getattr(got, "at", None) == at
    distinct = list(dict.fromkeys((i, v) for k, i, v in reversed(w)
                                  if k == FACTOR))
    assert ops.inv_calls == distinct


@given(norm_words, norm_words)
def test_invert_antihomomorphism(a, b):
    lhs = invert(concat(a, b, OPS), OPS)
    rhs = concat(invert(b, OPS), invert(a, OPS), OPS)
    assert lhs == rhs


@given(raw_words)
def test_text_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_empty_word_text():
    assert format_word(EMPTY) == "1"
    assert parse_word("1") == EMPTY


def test_parse_letter_exponents():
    assert parse_word("t3") == SyllableWord([(LETTER, 3, 1)])
    assert parse_word("t3^1") == SyllableWord([(LETTER, 3, 1)])
    assert parse_word("t3^-1") == SyllableWord([(LETTER, 3, -1)])


@pytest.mark.parametrize("text", ["f0", "f0:x", "t1^2", "t1^-2", "q3",
                                  "fa:1", "tx"])
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(ValueError):
        parse_word(text)


def test_validate_rejects_identity_syllable():
    with pytest.raises(ValueError, match="identity syllable"):
        validate(SyllableWord([(FACTOR, 0, 0)]), OPS)


def test_validate_rejects_adjacent_same_factor():
    w = SyllableWord([(FACTOR, 0, 1), (FACTOR, 0, 2)])
    with pytest.raises(ValueError, match="same-factor"):
        validate(w, OPS)


def test_validate_rejects_adjacent_inverse_letters():
    w = SyllableWord([(LETTER, 0, 1), (LETTER, 0, -1)])
    with pytest.raises(ValueError, match="inverse letters"):
        validate(w, OPS)


def test_validate_allows_repeated_letter():
    validate(SyllableWord([(LETTER, 0, 1), (LETTER, 0, 1)]), OPS)


def test_normalize_merges_across_cancellation():
    """A letter pair cancelling can bring two same-factor syllables together;
    merging happens only for what is adjacent at push time."""
    w = SyllableWord([(FACTOR, 0, 1), (LETTER, 0, 1), (LETTER, 0, -1),
                      (FACTOR, 0, 4)])
    assert normalize(w) == EMPTY


def test_syllable_length_property():
    # a word's length counts its syllables, stable letters included
    w = SyllableWord([(FACTOR, 0, 1), (LETTER, 0, 1)])
    assert len(w) == 2
