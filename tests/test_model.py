import json
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from covertq.detect import _cut
from covertq.exponent import i_err_numeric
from covertq.model import (
    Hypothesis,
    ModelParams,
    NonFiniteError,
    csv_text,
    json_text,
)
from oracles import (
    mpmath_cut,
    mpmath_exponent,
    mpmath_llr_coefficients,
    stationary_distribution,
    transition_matrix,
)


def test_h0_matrix_symmetric_case():
    m = transition_matrix(ModelParams(1.0, 0.0, 1.0), Hypothesis.H0)
    np.testing.assert_array_equal(m, [[0.5, 0.5], [0.5, 0.5]])


def test_h1_matrix_direct_substitution():
    m = transition_matrix(ModelParams(0.3, 0.2, 1.0), Hypothesis.H1)
    np.testing.assert_allclose(m, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-15)


def test_h1_with_zero_lambda_b_collapses_to_h0():
    params = ModelParams(0.3, 0.0, 1.0)
    np.testing.assert_array_equal(
        transition_matrix(params, Hypothesis.H1),
        transition_matrix(params, Hypothesis.H0),
    )
    assert transition_matrix(params, Hypothesis.H0)[0, 0] == 1.0 / 1.3


def test_h0_ignores_lambda_b():
    a = transition_matrix(ModelParams(0.3, 0.0, 1.0), Hypothesis.H0)
    b = transition_matrix(ModelParams(0.3, 0.5, 1.0), Hypothesis.H0)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lambda_w,mu", [(0.0, 1.0), (-1.0, 1.0), (0.3, 0.0), (0.3, -2.0)])
def test_invalid_rates_rejected(lambda_w, mu):
    with pytest.raises(ValueError):
        ModelParams(lambda_w, 0.1, mu)


UNRESOLVABLE = [
    ((float("nan"), 0.1, 1.0), "must be finite"), ((0.3, float("nan"), 1.0), "must be finite"),
    ((0.3, 0.1, float("nan")), "must be finite"), ((float("inf"), 0.1, 1.0), "must be finite"),
    ((0.3, float("inf"), 1.0), "must be finite"), ((0.3, 0.1, float("inf")), "must be finite"),
    ((1e-17, 0.0, 1.0), "too far apart"),  # p = mu/(lambda_w+mu) rounds to 1
    ((1e-17, 0.5, 1.0), "too far apart"),
    ((1e308, 1e308, 1.0), "too far apart"),  # lambda_w+lambda_b+mu overflows, so q = 0
]


@pytest.mark.parametrize("rates, match", UNRESOLVABLE,
                         ids=[f"rates{i}" for i in range(len(UNRESOLVABLE))])
def test_non_finite_or_unresolvable_rates_rejected(rates, match):
    with pytest.raises(ValueError, match=match):
        ModelParams(*rates)


def test_construction_accepts_exactly_the_triples_whose_p_and_q_resolve():
    # every rate log-uniform over the positive floats, drawn once from a fixed
    # seed: the core is formed on construction, so no later division, log or
    # square may raise where the formula p and q pass 0 < q <= p < 1
    rng = np.random.default_rng(900729077)
    wrong, accepted = [], 0
    for lw, lb, mu in (10.0 ** rng.uniform(-320, 308, (3000, 3))).tolist():
        p, q = mu / (lw + mu), mu / (lw + lb + mu)
        try:
            params = ModelParams(lw, lb, mu)
        except ValueError:
            got = None
        else:
            got = params.idle_probability(Hypothesis.H0), params.idle_probability(Hypothesis.H1)
            accepted += 1
        if got != ((p, q) if 0.0 < q <= p < 1.0 else None):
            wrong.append((lw, lb, mu))
    assert wrong == []
    assert 300 < accepted < 2700  # both sides of the check are drawn


def test_lambda_b_below_float_resolution_is_accepted():
    params = ModelParams(0.3, 1e-18, 1.0)
    assert params.idle_probability(Hypothesis.H1) == params.idle_probability(Hypothesis.H0)


def test_negative_lambda_b_rejected():
    with pytest.raises(ValueError):
        ModelParams(0.3, -0.1, 1.0)


def test_every_load_is_a_valid_model_and_warns_nothing():
    # a loss system holds at most one job, so it is ergodic at any load:
    # an arrival finds the server idle with probability 1/(1 + load)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for load in (1.0, 1.3, 20.0, 1000.0):
            params = ModelParams(0.5 * load, 0.5 * load, 1.0)
            assert params.idle_probability(Hypothesis.H1) == 1.0 / (1.0 + load)


def test_rows_stochastic_and_equal():
    params = ModelParams(0.4, 0.3, 2.0)
    for hyp in Hypothesis:
        m = transition_matrix(params, hyp)
        np.testing.assert_allclose(m.sum(axis=1), [1.0, 1.0], atol=1e-12)
        assert np.array_equal(m[0], m[1])
        assert ((m >= 0) & (m <= 1)).all()


def test_stationary_equal_rows_is_the_row():
    np.testing.assert_array_equal(
        stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]])), [0.5, 0.5]
    )
    row = np.array([2 / 3, 1 / 3])
    np.testing.assert_array_equal(
        stationary_distribution(np.array([row, row])), row
    )


def test_stationary_general_matrix():
    # pi M = pi solved by hand: pi = (6/7, 1/7)
    pi = stationary_distribution(np.array([[0.9, 0.1], [0.6, 0.4]]))
    np.testing.assert_allclose(pi, [6 / 7, 1 / 7], atol=1e-12)


def test_stationary_rejects_non_stochastic():
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[0.9, 0.3], [0.6, 0.4]]))


@given(
    lw=st.floats(0.05, 0.9),
    # lambda_b either exactly zero or large enough that q does not round
    # onto p in double precision
    lb=st.one_of(st.just(0.0), st.floats(1e-6, 0.9)),
    mu=st.floats(2.0, 5.0),  # keeps mu > lambda_w + lambda_b, no warning noise
)
def test_p_exceeds_q_iff_lambda_b_positive(lw, lb, mu):
    params = ModelParams(lw, lb, mu)
    p = params.idle_probability(Hypothesis.H0)
    q = params.idle_probability(Hypothesis.H1)
    assert (p > q) == (lb > 0)


def test_rate_ratio_core_leaves_equality_hash_and_repr_alone():
    params = ModelParams(0.3, 0.2, 1.0)
    assert params._ratios is params._ratios  # formed once
    assert params == ModelParams(0.3, 0.2, 1.0)
    assert hash(params) == hash(ModelParams(0.3, 0.2, 1.0))
    assert repr(params) == "ModelParams(lambda_w=0.3, lambda_b=0.2, mu=1.0)"


def test_rate_ratio_core_matches_mpmath_on_random_triples():
    # every rate log-uniform over 24 decades, drawn once from a fixed seed;
    # the LLR coefficients, the cut and the numeric exponent all read the core
    rng = np.random.default_rng(2026)
    triples = []
    while len(triples) < 3000:
        try:
            triples.append(ModelParams(*(float(r) for r in 10.0 ** rng.uniform(-12, 12, 3))))
        except ValueError:  # p rounds to 1 where mu > 1e16 lambda_w
            pass
    coefficients_off, cuts_off, exponents_off = [], [], []
    for params in triples:
        refs = [float(r) for r in mpmath_llr_coefficients(params)]
        coefficients = params._ratios.a, params._ratios.b
        if any(abs(c - r) > 1e-14 * abs(r) for c, r in zip(coefficients, refs)):
            coefficients_off.append(params)
        cuts_off += [(params, n) for n in (10**3, 10**5)
                     if _cut(n, params, 0.0) != mpmath_cut(params, n, 0.0)]
        v, i_err = i_err_numeric(params)
        v_ref, i_ref = (float(r) for r in mpmath_exponent(*astuple(params)))
        if abs(v - v_ref) > 1e-10 or abs(i_err - i_ref) > 1e-11 * i_ref:
            exponents_off.append(params)
    assert (coefficients_off, cuts_off, exponents_off) == ([], [], [])


def test_csv_text_writes_numpy_floats_like_floats():
    assert csv_text(("x", "y", "n"), [(np.float64(0.1), 0.1, np.int64(3))]) == (
        "x,y,n\n0.1,0.1,3\n"
    )


def test_json_text_rejects_non_finite_values():
    assert json_text({"b": 1.5, "a": [1]}) == '{"a": [1], "b": 1.5}'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"x": bad})


def json_trees(floats):
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-(10**300), 10**300),
                        floats, st.text())
    return st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4)), max_leaves=24)


@given(doc=json_trees(st.floats()), indent=st.integers(0, 3))
@example(doc={"a": [1, {"b": float("inf")}]}, indent=1)
@example(doc={"é": {"z": [], "y": {}}, "a": [[[]], ()]}, indent=2)
def test_indented_json_text_is_json_dumps(doc, indent):
    # the indent path writes json.dumps' bytes without json's pure-Python
    # encoder, and raises json.dumps' own message for NaN and infinities
    try:
        expected = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(NonFiniteError) as err:
            json_text(doc, indent)
        assert str(err.value) == str(exc)
        assert str(err.value).startswith("Out of range float values are not JSON compliant: ")
    else:
        with mock.patch.object(json.encoder, "_make_iterencode", side_effect=AssertionError):
            assert json_text(doc, indent) == expected


@pytest.mark.parametrize("doc", [
    {1: [2], 1.5: {"x": 1}, None: 0, True: "t"}, {"a": {2: [3]}}, [{0.5: 1, False: 2}],
    {"a": {"b": 1, 2: [3]}}, {"a": [object()]}])
def test_indented_json_text_handles_keys_and_errors_as_json_dumps(doc):
    try:
        expected = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            json_text(doc, 1)
    else:
        assert json_text(doc, 1) == expected


def test_csv_text_rejects_non_finite_values():
    assert csv_text(("a", "b"), [(1.5, 1)]) == "a,b\n1.5,1\n"
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError):
            csv_text(("x",), [(bad,)])
