import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertq.model import (
    Hypothesis,
    ModelParams,
    UnstableRegimeWarning,
    csv_text,
    json_text,
)
from oracles import stationary_distribution, transition_matrix


def test_h0_matrix_symmetric_case():
    with pytest.warns(UnstableRegimeWarning):  # lambda_w equals mu
        params = ModelParams(1.0, 0.0, 1.0)
    m = transition_matrix(params, Hypothesis.H0)
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


@pytest.mark.parametrize("rates", [
    (float("nan"), 0.1, 1.0), (0.3, float("nan"), 1.0), (0.3, 0.1, float("nan")),
    (float("inf"), 0.1, 1.0), (0.3, float("inf"), 1.0), (0.3, 0.1, float("inf")),
    (1e-17, 0.0, 1.0),  # p = mu/(lambda_w+mu) rounds to 1
    (1e-17, 0.5, 1.0),
    (1e308, 1e308, 1.0),  # lambda_w+lambda_b+mu overflows, so q = 0
])
def test_non_finite_or_unresolvable_rates_rejected(rates):
    with pytest.raises(ValueError):
        ModelParams(*rates)


def test_lambda_b_below_float_resolution_is_accepted():
    params = ModelParams(0.3, 1e-18, 1.0)
    assert params.idle_probability(Hypothesis.H1) == params.idle_probability(Hypothesis.H0)


def test_negative_lambda_b_rejected():
    with pytest.raises(ValueError):
        ModelParams(0.3, -0.1, 1.0)


def test_unstable_regime_warns_by_default():
    with pytest.warns(UnstableRegimeWarning):
        params = ModelParams(0.8, 0.5, 1.0)
    assert not params.stable


def test_unstable_regime_warning_names_the_caller():
    with pytest.warns(UnstableRegimeWarning) as record:
        ModelParams(0.8, 0.5, 1.0)
    assert record[0].filename == __file__


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


def test_csv_text_writes_numpy_floats_like_floats():
    assert csv_text(("x", "y", "n"), [(np.float64(0.1), 0.1, np.int64(3))]) == (
        "x,y,n\n0.1,0.1,3\n"
    )


def test_json_text_rejects_non_finite_values():
    assert json_text({"b": 1.5, "a": [1]}) == '{"a": [1], "b": 1.5}'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"x": bad})


def test_csv_text_rejects_non_finite_values():
    assert csv_text(("a", "b"), [(1.5, 1)]) == "a,b\n1.5,1\n"
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError):
            csv_text(("x",), [(bad,)])
