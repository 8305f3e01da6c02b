"""Property tests for the formula evaluator: shadow-evaluation oracle.

Random arithmetic expression trees are rendered both as spreadsheet
formulas and as Python expressions; the evaluator must agree with
Python's own arithmetic on every tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.base.spreadsheet.formulas import evaluate_cell
from repro.base.spreadsheet.workbook import Worksheet


@st.composite
def expression_trees(draw, depth=0):
    """(formula_text, python_text) pairs that evaluate identically."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(1, 50))
        return str(value), str(value)
    op = draw(st.sampled_from(["+", "-", "*"]))
    left_formula, left_python = draw(expression_trees(depth=depth + 1))
    right_formula, right_python = draw(expression_trees(depth=depth + 1))
    return (f"({left_formula}{op}{right_formula})",
            f"({left_python}{op}{right_python})")


class TestFormulaShadowEvaluation:
    @given(expression_trees())
    @settings(max_examples=150)
    def test_agrees_with_python(self, pair):
        formula_text, python_text = pair
        sheet = Worksheet("S")
        sheet.set_cell("A1", f"={formula_text}")
        expected = float(eval(python_text))  # the oracle
        assert evaluate_cell(sheet, "A1") == pytest.approx(expected)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
           st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]))
    def test_functions_agree_with_python(self, numbers, function):
        sheet = Worksheet("S")
        sheet.set_row(1, numbers)
        from repro.base.spreadsheet.workbook import format_cell_ref
        last = format_cell_ref(1, len(numbers))
        sheet.set_cell("A2", f"={function}(A1:{last})")
        oracle = {
            "SUM": sum(numbers),
            "AVG": sum(numbers) / len(numbers),
            "MIN": min(numbers),
            "MAX": max(numbers),
            "COUNT": len(numbers),
        }[function]
        assert evaluate_cell(sheet, "A2") == pytest.approx(float(oracle))

    @given(st.integers(2, 8))
    def test_chain_of_references(self, length):
        """A1 <- A2 <- ... <- An resolves through the whole chain."""
        sheet = Worksheet("S")
        sheet.set_cell(f"A{length}", 7)
        for row in range(1, length):
            sheet.set_cell(f"A{row}", f"=A{row + 1}")
        assert evaluate_cell(sheet, "A1") == 7.0
