"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st


@st.composite
def generator_sets(draw):
    """A degree in 1..6 and up to four generators, as image tuples; empty
    sets, the identity, repeated generators and intransitive sets all occur."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)).map(tuple), max_size=3))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return degree, gens
