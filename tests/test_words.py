import hypothesis.strategies as st
from hypothesis import given

from planarep.words import (
    commutator,
    gen,
    w_inv,
    w_mul,
    w_pow,
    word,
)

from oracles import is_reduced, signed_count

letters = st.integers(min_value=-6, max_value=6).filter(lambda s: s != 0)
words = st.lists(letters, max_size=12).map(word)


def test_gen_and_inverse():
    x = gen(0)
    assert x == (1,)
    assert w_inv(x) == (-1,)
    assert w_mul(x, w_inv(x)) == ()


def test_commutator_shape():
    x, y = gen(0), gen(1)
    assert commutator(x, y) == (1, 2, -1, -2)


def test_word_reduces():
    assert word([1, -1]) == ()
    assert word([1, 2, -2, -1]) == ()
    assert word([1, 2, -2, 3]) == (1, 3)


@given(words)
def test_reduced_invariant(w):
    assert is_reduced(w)


@given(words)
def test_inverse_is_involutive(w):
    assert w_inv(w_inv(w)) == w


@given(words)
def test_mul_by_inverse_is_identity(w):
    assert w_mul(w, w_inv(w)) == ()
    assert w_mul(w_inv(w), w) == ()


@given(words, words, words)
def test_mul_associative(a, b, c):
    assert w_mul(w_mul(a, b), c) == w_mul(a, w_mul(b, c))


@given(words, words)
def test_inverse_antihomomorphism(a, b):
    assert w_inv(w_mul(a, b)) == w_mul(w_inv(b), w_inv(a))


@given(words, st.integers(min_value=-4, max_value=4))
def test_power_counts(w, k):
    p = w_pow(w, k)
    # signed letter counts form a homomorphism to Z^rank
    for i in range(6):
        assert signed_count(p, i) == k * signed_count(w, i)


@given(words, st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_product(w, k):
    # the letters of w repeated |k| times (inverted for k < 0), freely reduced
    ref = list(w if k >= 0 else w_inv(w)) * abs(k)
    assert w_pow(w, k) == word(ref)


def test_signed_count():
    w = word([1, 2, -1, 2, 2])
    assert signed_count(w, 0) == 0
    assert signed_count(w, 1) == 3
