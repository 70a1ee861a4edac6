"""Property tests: the modular image against a set oracle, and the text round trip.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from padiclds.polynomials import IntPolynomial, _image, parse_poly, render  # noqa: E402

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# lengths drawn uniformly up to 60, so square moduli q^2 with q in 16..40 meet
# degrees above q as often as below
coefficients = st.integers(0, 60).flatmap(
    lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
moduli = st.one_of(st.integers(1, 40).map(lambda q: q * q), st.integers(1, 1600))


@fixed
@given(coefficients, moduli)
def test_image_matches_set_oracle(coeffs, m):
    f = IntPolynomial(coeffs)
    values = [f(x) % m for x in range(m)]
    image = bytearray(m)
    for v in set(values):
        image[v] = 1
    assert _image(f.coeffs, m, False) == image
    assert _image(f.coeffs, m, True) == (image if len(set(values)) == m else None)


@fixed
@given(st.lists(st.integers(), max_size=12))
def test_parse_render_round_trip(coeffs):
    f = IntPolynomial(coeffs)
    assert parse_poly(render(f)) == f
