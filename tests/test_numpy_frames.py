"""A budget of Python-level numpy frames per analysis.

The hot paths of `monoid`, `stability` and `fragments` call numpy's C entry
points, not its Python convenience wrappers (`ndarray.all`, `flatnonzero`,
`array_equal`, `unique`, `zeros_like`, the `packbits` and `unpackbits`
dispatchers), which cost microseconds a call on the tiny monoids that make
up most inputs.  This test counts, with
`sys.setprofile`, the Python frames under numpy's package that one
`analyze` enters, after a warm-up call, and holds them to the counts below.
The counts repeat exactly from run to run.  They depend on numpy's own
layering, so they are pinned to one numpy major.minor: on another version
the test skips, and the budget is re-pinned there, never loosened to pass.
"""

import os
import sys

import numpy as np
import pytest

from fragcheck.automata import minimize, regex_to_dfa
from fragcheck.fragments import analyze

PINNED_NUMPY = "2.4"

# pattern -> frames per analysis, the same at index multipliers 1 and 3
BUDGET = {"(a|b)*": 3, "(aa)*": 3, "a(a|b)*": 5, "(ab)*": 7}


def numpy_frames(d, multiplier: int) -> int:
    root = os.path.dirname(np.__file__) + os.sep
    analyze(d, index_multiplier=multiplier)  # warm-up
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        analyze(d, index_multiplier=multiplier)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("multiplier", [1, 3])
@pytest.mark.parametrize("pattern", list(BUDGET))
def test_analyze_stays_within_its_numpy_frame_budget(pattern, multiplier):
    installed = ".".join(np.__version__.split(".")[:2])
    if installed != PINNED_NUMPY:
        pytest.skip(f"frame budget pinned on numpy {PINNED_NUMPY}, installed {installed}")
    got = numpy_frames(minimize(regex_to_dfa(pattern)), multiplier)
    assert got <= BUDGET[pattern], (pattern, multiplier, got)
