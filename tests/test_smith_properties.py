"""Property test: smith_normal_form returns a Smith form of its input, on
entries up to 10^12 and shapes up to 5x60. Needs `hypothesis`."""
import pytest

from torsolve.intlinalg import IntMatrix, smith_normal_form

from oracles import product, rank

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

BOUND = 10**12


@st.composite
def integer_matrices(draw):
    """Nonzero matrices up to 5x60: dense draws, mostly of full rank, or
    products of a 5xk and a kx60 factor, whose rank is at most k."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 60))
    if draw(st.booleans()):
        entries = st.one_of(st.integers(-3, 3), st.integers(-BOUND, BOUND))
        rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    else:
        k = draw(st.integers(1, 4))
        factor = st.integers(-400_000, 400_000)  # k * 400_000**2 < 10**12
        left = draw(st.lists(st.lists(factor, min_size=k, max_size=k), min_size=n, max_size=n))
        right = draw(st.lists(st.lists(factor, min_size=m, max_size=m), min_size=k, max_size=k))
        rows = product(IntMatrix.from_rows(left), IntMatrix.from_rows(right)).entries
    hypothesis.assume(any(any(row) for row in rows))
    return IntMatrix.from_rows(rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(integer_matrices())
def test_smith_normal_form_is_a_smith_form(A):
    form = smith_normal_form(A)
    f = form.invariant_factors
    assert product(form.P, form.D, form.Q).entries == A.entries
    assert abs(form.P.det()) == abs(form.Q.det()) == 1
    assert form.D.entries == tuple(
        tuple(f[i] if i == j and i < len(f) else 0 for j in range(A.cols)) for i in range(A.rows))
    assert all(d > 0 for d in f)
    assert all(b % a == 0 for a, b in zip(f, f[1:]))
    assert form.rank == rank(A)
