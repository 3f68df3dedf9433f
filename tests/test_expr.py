"""Tiny expression grammar: parsing, printing, evaluation, error columns."""

import numpy as np
import pytest

from homapprox import parse_expr
from homapprox.errors import ExprError, ExprDomainError
from homapprox.expr import boundary_function, line_function


def test_basic_evaluation():
    assert parse_expr("abs(x) + y^2")(x=1.0, y=2.0) == pytest.approx(5.0)
    assert parse_expr("-x^2")(x=3.0) == pytest.approx(-9.0)
    assert parse_expr("2^3^2")() == pytest.approx(512.0)
    assert parse_expr("x^-2")(x=2.0) == pytest.approx(0.25)
    assert parse_expr("exp(x)*cos(y)")(x=0.0, y=0.0) == pytest.approx(1.0)
    assert parse_expr("(1+2)*(3-4)")() == pytest.approx(-3.0)


def test_print_round_trip_is_idempotent():
    for text in ("abs(x)+y^2", "-x^2", "2^3^2", "x*(y+1)-3/t",
                 "sqrt(x^2+y^2)", "exp(-x)*sin(2*y)"):
        node = parse_expr(text)
        printed = str(node)
        again = parse_expr(printed)
        assert str(again) == printed
        env = {"x": 0.7, "y": -0.3, "t": 1.4}
        needed = {k: env[k] for k in node.variables()}
        assert again(**needed) == pytest.approx(node(**needed))


def test_variables():
    assert parse_expr("exp(x)*cos(y)").variables() == {"x", "y"}
    assert parse_expr("1+2").variables() == set()


def test_syntax_error_columns():
    with pytest.raises(ExprError) as ei:
        parse_expr("x + * y")
    assert ei.value.column == 5
    with pytest.raises(ExprError) as ei:
        parse_expr("foo(x)")
    assert ei.value.column == 1
    with pytest.raises(ExprError) as ei:
        parse_expr("x + (y")
    assert ei.value.column == 7
    # a literal that overflows to inf is an input error at its column
    with pytest.raises(ExprError) as ei:
        parse_expr("1e400")
    assert ei.value.column == 1
    with pytest.raises(ExprError) as ei:
        parse_expr("x + 1e999")
    assert ei.value.column == 5


def test_domain_error_column():
    node = parse_expr("1/(x-x)")
    with pytest.raises(ExprDomainError) as ei:
        node(x=1.0)
    assert ei.value.where == 2
    with pytest.raises(ExprDomainError):
        parse_expr("log(x)")(x=-1.0)
    with pytest.raises(ExprDomainError):
        parse_expr("sqrt(x)")(x=-4.0)


def test_boundary_function_vectorized():
    f = boundary_function(parse_expr("x^2 - y"))
    pts = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert np.allclose(f(pts), [-1.0, 10.0])
    with pytest.raises(ExprError):
        boundary_function(parse_expr("t + 1"))


def test_line_function_vectorized():
    g = line_function(parse_expr("t/(1+t^2)"))
    t = np.array([0.0, 1.0, 2.0])
    assert np.allclose(g(t), t / (1 + t ** 2))
    with pytest.raises(ExprError):
        line_function(parse_expr("x + 1"))
