"""Property tests of the nested divisor-sum DP (skipped when hypothesis is absent).

The Andrews-Rose check inside ``multiple_divisor_series`` only sees the
index (2, ..., 2), where every slot has the same exponent; the enumeration
oracle is what catches a slot read from the wrong end on mixed indices.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from macmahon import qseries  # noqa: E402
from macmahon.oracles import nested_divisor_series  # noqa: E402
from macmahon.qseries import multiple_divisor_series  # noqa: E402

from chain_reference import list_chain_rows  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=120, deadline=None)

indices = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


@PROPERTY
@given(indices, st.integers(0, 24), st.booleans())
def test_dp_matches_enumeration(index, order, odd):
    assert multiple_divisor_series(index, order, odd) == nested_divisor_series(index, order, odd)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple), st.integers(0, 60),
       st.booleans())
def test_packed_rows_match_the_list_reference(parts, order, odd):
    assert qseries._divisor_chain_rows(parts, order, odd) == list_chain_rows(parts, order, odd)
