"""One rule for finite elements: a Python or NumPy integer in 0..n-1.

Every entry point that takes an element of a finite table refuses
anything else with ``CarrierError("index out of range")``, never
truncating a float or reading a bool as an index or a mask; every entry
point that takes an index set refuses it with a ``ValueError`` that names
the member; ``contains`` and ``in`` answer False.  Integer scalars of
every NumPy width give the Python int's result.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrokit import (CarrierError, ChainError, DyadicChain, FiniteSet,
                     FiniteTable, TableError, build_dyadic_family, chain_load,
                     cyclic_table, homogeneity_translate, is_subgyrogroup,
                     left_cosets, same_coset, table_load)
from gyrokit.prenorm import (ball, metric_d, quotient_ball, rho_ball, rho_N)

N = 4
Z4 = cyclic_table(N)
H = FiniteSet(N, indices=[0, 2])
PART = left_cosets(Z4, H)
FAM = build_dyadic_family(
    Z4, DyadicChain([FiniteSet(N, indices=range(N)), H, H], "admissible"), 4)

# value -> the entry point's result; x an element, c a coset (0 or 1)
ELEMENT_CALLS = {
    "op-a": lambda x: Z4.op(x, 1),
    "op-b": lambda x: Z4.op(1, x),
    "inv": lambda x: Z4.inv(x),
    "gyr-a": lambda x: Z4.gyr(x, 1, 2),
    "gyr-b": lambda x: Z4.gyr(1, x, 2),
    "gyr-z": lambda x: Z4.gyr(1, 2, x),
    "gyr_table": lambda x: Z4.gyr_table(x, 1),
    "project": lambda x: PART.project(x),
    "same_coset-a": lambda x: same_coset(Z4, H, x, 2),
    "same_coset-b": lambda x: same_coset(Z4, H, 2, x),
    "rho_N": lambda x: rho_N(FAM, x, 1),
    "prenorm": lambda x: FAM.prenorm(x),
    "metric_d": lambda x: metric_d(FAM, 1, x),
    "ball": lambda x: ball(FAM, x, 0.5),
    "rho_ball": lambda x: rho_ball(FAM, x, 0.5),
    "homogeneity_translate-a": lambda x: homogeneity_translate(PART, x, 1),
}
COSET_CALLS = {
    "homogeneity_translate-coset": lambda c: homogeneity_translate(PART, 1, c),
    "quotient_ball": lambda c: quotient_ball(FAM, PART, c, 1),
}
# a member -> the set entry point's result
SET_CALLS = {
    "FiniteSet": lambda m: FiniteSet(N, indices=[0, m]),
    "is_subgyrogroup": lambda m: is_subgyrogroup(Z4, [0, m]),
    "chain_load": lambda m: chain_load(Z4, {"sets": [[0, 1, 2, 3], [0, m]]}),
}

BAD = [1.5, np.float64(2.0), True, np.True_, -1, N, 10 ** 30, [0, 1.5]]
BAD_IDS = ["1.5", "float64", "True", "np.True_", "-1", "n", "1e30", "list"]
WIDTHS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
          np.uint32, np.uint64, np.intp]


def same(got, want) -> bool:
    """Equal values of the same type; arrays equal elementwise."""
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want) and got.dtype == want.dtype
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call", [*ELEMENT_CALLS.values(),
                                  *COSET_CALLS.values()],
                         ids=[*ELEMENT_CALLS, *COSET_CALLS])
def test_elements_refused(call, bad):
    with pytest.raises(CarrierError, match="^index out of range$"):
        call(bad)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call", SET_CALLS.values(), ids=SET_CALLS)
def test_set_members_refused_by_name(call, bad):
    if isinstance(bad, int) and not isinstance(bad, bool):
        text = f"index {bad} out of range 0..{N - 1}"
    else:
        text = f"set member {bad!r} is not an integer index"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(bad)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_contains_and_in_are_false(bad):
    assert not Z4.contains(bad)
    assert bad not in H
    assert bad not in FiniteSet(N, indices=range(N))


@pytest.mark.parametrize("width", WIDTHS, ids=lambda t: t.__name__)
def test_numpy_integers_match_python_ints(width):
    for call in ELEMENT_CALLS.values():
        assert same(call(width(3)), call(3))
    for call in COSET_CALLS.values():
        assert same(call(width(1)), call(1))
    for call in SET_CALLS.values():
        got, want = call(width(2)), call(2)
        assert (got.sets == want.sets if isinstance(want, DyadicChain)
                else got == want)
    assert Z4.contains(width(3)) and width(2) in H and width(1) not in H
    assert np.asarray(width(2)) in H


@pytest.mark.parametrize("batch", [[2], (0, 2), [0, 2], np.array([2])])
def test_in_takes_one_element_not_a_batch(batch):
    # a batch of elements lies in the carrier, but is no member of a set
    assert Z4.contains(batch)
    assert batch not in H


ONE_ELEMENT_CALLS = {**{k: ELEMENT_CALLS[k] for k in (
    "same_coset-a", "same_coset-b", "rho_N", "prenorm", "metric_d", "ball",
    "rho_ball")}, **COSET_CALLS}


@pytest.mark.parametrize("batch", [[0, 1], [1], np.array([1])],
                         ids=["pair", "list-of-one", "array-of-one"])
@pytest.mark.parametrize("call", ONE_ELEMENT_CALLS.values(),
                         ids=ONE_ELEMENT_CALLS)
def test_one_element_entry_points_refuse_a_batch(call, batch):
    # never a wrong-shaped answer, such as a ball of 2n members
    with pytest.raises(CarrierError, match="^index out of range$"):
        call(batch)


def test_zero_dimensional_arrays_are_elements():
    for v in [np.array(2), np.array(2, dtype=object), np.array(2, np.uint8)]:
        assert v in H and Z4.op(v, 1) == 3 and FAM.prenorm(v) == FAM.prenorm(2)


def test_chain_load_reports_the_first_defect_in_document_order():
    # a range defect in an earlier set comes before a type defect in a
    # later one, and within a set the first bad member is named
    for sets, text in [([[0, 9], [0, 1.5]], "index 9 out of range 0..3"),
                       ([[0, 1.5], [0, 9]],
                        "set member 1.5 is not an integer index"),
                       ([[9, True]], "index 9 out of range 0..3"),
                       ([[True, 9]], "set member True is not an integer index")]:
        with pytest.raises(ChainError, match=f"^{re.escape(text)}$"):
            chain_load(Z4, {"sets": sets})


@pytest.mark.parametrize("table", [
    [[0, 1.7], [1.2, 0]],
    [[False, True], [True, False]],
    [[0, True], [True, 0]],
    np.array([[0, 1], [1, 0]], dtype=float),
    [[0, float("nan")], [1, 0]],
    np.array([[0, 2 ** 70], [2 ** 70, 0]], dtype=object),
], ids=["float", "bool", "bool-among-ints", "integral-float", "nan",
        "2**70"])
@pytest.mark.parametrize("validate", [True, False])
def test_finite_table_refuses_non_integer_entries(table, validate):
    with pytest.raises(TableError) as err:
        FiniteTable(table, validate=validate)
    assert str(err.value) == "table entries must be indices in 0..n-1"


@pytest.mark.parametrize("entry", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
def test_table_load_refuses_entries_beyond_int64(entry):
    # numpy reads them as uint64 or object entries, never wrapped
    with pytest.raises(TableError) as err:
        table_load({"table": [[0, 1], [1, entry]]})
    assert str(err.value) == "table entries must be indices in 0..n-1"


@pytest.mark.parametrize("width", WIDTHS, ids=lambda t: t.__name__)
def test_finite_table_takes_integer_tables_of_any_width(width):
    model = FiniteTable(Z4.table.astype(width))
    assert model.table.dtype == np.int64
    assert np.array_equal(model.table, Z4.table)


def is_element(v) -> bool:
    """The oracle: an int of Python or NumPy, not a bool, in 0..N-1."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and 0 <= v < N)


INTEGERS = st.integers(-2 ** 70, 2 ** 70) | st.integers(-2, N + 1)
SCALARS = st.one_of(
    INTEGERS, st.booleans(), st.floats(allow_nan=True),
    st.sampled_from([np.True_, np.False_]),
    st.tuples(st.sampled_from(WIDTHS), st.integers(0, 255)).map(
        lambda t: t[0](t[1] % 128)),
    st.tuples(st.sampled_from([np.float16, np.float32, np.float64]),
              st.integers(-2, N + 1)).map(lambda t: t[0](t[1])),
    st.just(None), st.just("1"))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(v=SCALARS | st.lists(SCALARS, max_size=3))
def test_drawn_values_follow_the_int_path_or_are_refused(v):
    # never truncated, never a bare IndexError: either the value is an
    # element (a list, all its members) and gives what its Python ints
    # give, or it is refused
    if isinstance(v, list):
        ok = all(map(is_element, v))
        ints = [int(x) for x in v] if ok else None
        calls = [ELEMENT_CALLS[k]
                 for k in ("op-a", "op-b", "inv", "gyr-z", "project")]
    else:
        ok = is_element(v)
        ints = int(v) if ok else None
        calls = ELEMENT_CALLS.values()
    for call in calls:
        if ok:
            assert same(call(v), call(ints))
        else:
            with pytest.raises(CarrierError):
                call(v)
    assert Z4.contains(v) == ok
    assert (v in H) == (not isinstance(v, list) and ok and int(v) in (0, 2))
