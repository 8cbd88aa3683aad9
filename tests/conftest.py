"""Shared fixtures: the common example languages and a seeded corpus of
random minimal DFAs for the property suites."""

import pytest

from fragcheck.automata import regex_to_dfa
from fragcheck.cli import generate_corpus


@pytest.fixture(scope="session")
def small_corpus():
    # enough diversity for the structural properties, cheap to analyze
    return generate_corpus(count=40, max_states=4, max_letters=3, seed=7, max_monoid=600)


@pytest.fixture(scope="session")
def xcheck_corpus():
    # the shape `xcheck` draws by default (at most 5 states and 3 letters),
    # under the benchmark's monoid cap
    return generate_corpus(count=60, max_states=5, max_letters=3, seed=7, max_monoid=32)


@pytest.fixture(scope="session")
def langs():
    return {
        "odd_pair": regex_to_dfa("((a|b)(a|b))*(aa|bb)(a|b)*"),
        "factor_aa": regex_to_dfa("(a|b)*aa(a|b)*"),
        "repeat": regex_to_dfa("(a|b)*(aa|bb)(a|b)*"),
        "both_letters": regex_to_dfa("(a|b)*(ab|ba)(a|b)*"),
        "bc_star": regex_to_dfa("(bc)*"),
        "even_length": regex_to_dfa("((a|b)(a|b))*"),
        "even_a": regex_to_dfa("(b*ab*a)*b*"),
        "universal": regex_to_dfa("(a|b)*"),
    }
