"""The workflow runs every check of ci_checks.py, in its order, one step each."""

import re
from pathlib import Path

import ci_checks

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_are_the_checks_in_order():
    text = WORKFLOW.read_text()
    calls = re.findall(r"^ *run: python tests/ci_checks\.py (\S+)$", text, re.MULTILINE)
    assert calls == list(ci_checks.CHECKS)


def test_workflow_holds_no_inline_program():
    text = WORKFLOW.read_text()
    for marker in ("<<", "python -c", "python3 -"):     # heredocs, python3 -c and -
        assert marker not in text
