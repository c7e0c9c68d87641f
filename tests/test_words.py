import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.smith import AbelianInvariants
from pretzel_surgery.words import GroupPresentation, Word, gen


def test_free_reduction_merges_runs():
    w = Word([("x", 2), ("x", 3), ("y", 1), ("y", -1), ("x", -5)])
    assert w.is_trivial
    # A zero exponent is no letter: it neither splits nor ends a run.
    assert Word([("x", 1), ("y", 0), ("x", -1)]).is_trivial
    assert Word([("x", 2), ("x", 0), ("y", 0)]) == gen("x", 2)


def test_multiplication_cancels_across_boundary():
    left = gen("x") * gen("y", -1)
    right = gen("y") * gen("x")
    assert (left * right) == gen("x", 2)


def test_inverse_and_power():
    w = gen("x") * gen("y", 2)
    assert (w * ~w).is_trivial
    assert w ** 0 == Word()
    assert w ** -2 == ~(w ** 2)
    assert gen("x", 3) ** 4 == gen("x", 12)


def test_exponent_sums_and_letters():
    w = gen("x", -2) * gen("y") * gen("x")
    assert w.exponent_sum("x") == -1
    assert sum(e for _, e in w.runs) == 0
    assert list(w.letters()) == [("x", -1), ("x", -1), ("y", 1), ("x", 1)]
    assert str(w) == "x^-2.y.x"


letters = st.lists(
    st.tuples(st.sampled_from("xyz"), st.sampled_from([1, -1])),
    max_size=12)


@given(letters, st.integers(-4, 4))
def test_power_is_repeated_product(base, n):
    word, product = Word(base), Word()
    for _ in range(abs(n)):
        product = product * (word if n > 0 else ~word)
    assert word ** n == product


@given(letters, st.data())
def test_free_reduction_confluent_under_insertions(base, data):
    word = Word(base)
    padded = list(word.letters())
    for _ in range(data.draw(st.integers(0, 6), label="insertions")):
        pos = data.draw(st.integers(0, len(padded)), label="pos")
        g = data.draw(st.sampled_from("xyz"), label="gen")
        e = data.draw(st.sampled_from([1, -1]), label="exp")
        padded[pos:pos] = [(g, e), (g, -e)]
    assert Word(padded) == word


def test_presentation_validates_alphabet():
    with pytest.raises(ValueError):
        GroupPresentation(("x",), (gen("y"),))
    with pytest.raises(ValueError):
        GroupPresentation(("x", "x"), ())


def test_presentation_abelianization():
    pres = GroupPresentation(("x",), (gen("x", 5),))
    assert pres.abelianization() == AbelianInvariants((5,), 0)
    free = GroupPresentation(("x", "y"), ())
    assert free.abelianization().free_rank == 2
