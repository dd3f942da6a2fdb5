"""The NaN-safe bitwise digest the output oracles use."""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.perf.workloads import canonical, digest


def test_nan_equals_nan_where_float_equality_does_not():
    row = {"delay_rise": float("nan"), "functional": False}
    again = json.loads(json.dumps(row))
    assert row != again  # the == check a NaN sample defeats
    assert digest(row) == digest(again)


def test_signed_zero_and_last_bit_differ():
    assert digest(0.0) != digest(-0.0)
    assert digest(0.1 + 0.2) != digest(0.3)
    assert digest(math.inf) != digest(-math.inf)


def test_floats_round_trip_through_json_bitwise():
    values = [1e-300, 5e-324, 1.6488812813423662e-10, -2.5, 1 / 3]
    assert digest(json.loads(json.dumps(values))) == digest(values)


def test_structure_is_exact_but_key_order_is_not():
    assert digest({"a": 1, "b": 2.0}) == digest({"b": 2.0, "a": 1})
    assert digest([1.0, 2.0]) != digest([2.0, 1.0])
    assert digest(1) != digest(1.0)
    assert digest(True) != digest(1)
    assert digest("1") != digest(1)
    assert canonical([None, (1, "x")]) == '[null,[int:1,"x"]]'


def test_unknown_types_are_refused():
    with pytest.raises(TypeError):
        canonical({1, 2})
