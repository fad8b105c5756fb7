"""Tests for the boolean filter expression engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import FilterExpression, fields_referenced, parse
from repro.errors import ExpressionError


COLUMNS = {
    "price": np.array([10.0, 50.0, 99.0, 150.0]),
    "stock": np.array([0, 5, 10, 2]),
    "label": np.array(["book", "food", "book", "cloth"]),
    "active": np.array([True, False, True, True]),
}


@pytest.fixture
def columns():
    return dict(COLUMNS)


def mask(text, columns, n=4):
    return FilterExpression(text).mask(columns, n).tolist()


class TestParsing:
    def test_simple_comparison(self):
        assert parse("price > 10") is not None

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            parse("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionError):
            parse("price > 10 20")

    def test_illegal_char_rejected(self):
        with pytest.raises(ExpressionError):
            parse("price @ 10")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ExpressionError):
            parse("(price > 10")

    def test_in_list_literals_only(self):
        with pytest.raises(ExpressionError):
            parse("label in [other_field]")

    def test_fields_referenced(self):
        ast = parse("price > 10 and (label in ['a'] or not active)")
        assert fields_referenced(ast) == {"price", "label", "active"}


class TestEvaluation:
    def test_comparison_ops(self, columns):
        assert mask("price > 50", columns) == [False, False, True, True]
        assert mask("price >= 50", columns) == [False, True, True, True]
        assert mask("price < 50", columns) == [True, False, False, False]
        assert mask("price == 99", columns) == [False, False, True, False]
        assert mask("price != 99", columns) == [True, True, False, True]

    def test_chained_comparison(self, columns):
        assert mask("10 < price < 100", columns) == \
            [False, True, True, False]

    def test_and_or_not(self, columns):
        assert mask("price > 20 and stock > 3", columns) == \
            [False, True, True, False]
        assert mask("price > 120 or stock == 0", columns) == \
            [True, False, False, True]
        assert mask("not price > 50", columns) == \
            [True, True, False, False]

    def test_in_list(self, columns):
        assert mask("label in ['book', 'cloth']", columns) == \
            [True, False, True, True]
        assert mask("label not in ['book']", columns) == \
            [False, True, False, True]

    def test_bare_boolean_field(self, columns):
        assert mask("active", columns) == [True, False, True, True]
        assert mask("not active", columns) == [False, True, False, False]

    def test_like_patterns(self, columns):
        assert mask("label like 'boo%'", columns) == \
            [True, False, True, False]
        assert mask("label like '%ood'", columns) == \
            [False, True, False, False]
        assert mask("label like '%o%'", columns) == \
            [True, True, True, True]
        assert mask("label like 'food'", columns) == \
            [False, True, False, False]

    def test_parentheses(self, columns):
        assert mask("(price > 120 or stock == 0) and active", columns) == \
            [True, False, False, True]

    def test_operator_precedence_and_binds_tighter(self, columns):
        # a or b and c == a or (b and c)
        got = mask("price > 120 or stock > 3 and active", columns)
        assert got == [False, False, True, True]

    def test_unknown_field_raises(self, columns):
        with pytest.raises(ExpressionError):
            mask("missing > 1", columns)

    def test_non_boolean_field_as_boolean_raises(self, columns):
        with pytest.raises(ExpressionError):
            mask("price", columns)

    def test_wrong_length_column_raises(self):
        with pytest.raises(ExpressionError):
            FilterExpression("x > 1").mask({"x": np.array([1, 2])}, 3)

    def test_empty_in_list(self, columns):
        assert mask("label in []", columns) == [False] * 4

    def test_string_escapes(self):
        cols = {"s": np.array(['he"llo', "plain"])}
        got = FilterExpression('s == "he\\"llo"').mask(cols, 2)
        assert got.tolist() == [True, False]


class TestProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(-1e6, 1e6))
    def test_threshold_partition(self, values, threshold):
        """x > t and x <= t partition every row."""
        cols = {"x": np.array(values)}
        n = len(values)
        gt = FilterExpression(f"x > {threshold!r}").mask(cols, n)
        le = FilterExpression(f"x <= {threshold!r}").mask(cols, n)
        assert (gt ^ le).all()

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                    max_size=30))
    def test_in_complement(self, labels):
        cols = {"label": np.array(labels)}
        n = len(labels)
        inside = FilterExpression("label in ['a', 'b']").mask(cols, n)
        outside = FilterExpression("label not in ['a', 'b']").mask(cols, n)
        assert (inside ^ outside).all()

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_de_morgan(self, values):
        cols = {"x": np.array(values)}
        n = len(values)
        lhs = FilterExpression("not (x > 0 and x < 50)").mask(cols, n)
        rhs = FilterExpression("not x > 0 or not x < 50").mask(cols, n)
        assert (lhs == rhs).all()


# Arbitrary characters (the tokenizer), the grammar's tokens in any order
# (the parser), and well-formed expressions over fields of every kind with
# constants of every kind (the evaluator).
_TOKENS = st.sampled_from([
    "price", "label", "nope", "and", "or", "not", "in", "like", "true",
    "<", ">=", "==", "!=", "(", ")", "[", "]", ",", "-", "1", "2.5", "'a'"])
_FIELD = st.sampled_from(["price", "stock", "label", "active", "nope"])
_CONST = st.sampled_from(["1", "-2", "2.5", "1e3", "'a'", '"book"', "'bo%'",
                          "true", "false"])
_OP = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_OPERAND = st.one_of(_FIELD, _CONST)
_ATOM = st.one_of(
    st.tuples(_OPERAND, _OP, _OPERAND).map(" ".join),
    st.tuples(_OPERAND, _OP, _OPERAND, _OP, _OPERAND).map(" ".join),
    st.tuples(_FIELD, st.sampled_from(["in", "not in"]),
              st.lists(_CONST, max_size=3).map(
                  lambda items: "[" + ", ".join(items) + "]")).map(" ".join),
    st.tuples(_FIELD, st.just("like"), _CONST).map(" ".join),
    _OPERAND)
_EXPRESSION = st.recursive(_ATOM, lambda inner: st.one_of(
    inner.map("not {}".format), inner.map("({})".format),
    st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(" ".join)),
    max_leaves=4)
_TEXT = st.one_of(st.text(max_size=30),
                  st.lists(_TOKENS, max_size=10).map(" ".join), _EXPRESSION)


class TestFuzz:
    @settings(max_examples=600, deadline=None)
    @given(_TEXT)
    def test_any_text_parses_to_a_mask_or_an_expression_error(self, text):
        """Whatever a caller types, the outcome is typed: the text parses
        or is an ExpressionError, and a parsed expression evaluates to one
        bool per row or is an ExpressionError."""
        try:
            expr = FilterExpression(text)
        except ExpressionError:
            return
        try:
            got = expr.mask(COLUMNS, 4)
        except ExpressionError:
            return
        assert got.shape == (4,) and got.dtype == np.bool_
