"""The CI workflow calls its steps from tests/ci_steps.sh; read both as text."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
SCRIPT = (ROOT / "tests" / "ci_steps.sh").read_text()


def script_functions() -> dict[str, str]:
    """Each function of the script, name -> body."""
    return dict(re.findall(r"^(\w+)\(\) \{\n(.*?)^\}$", SCRIPT, re.M | re.S))


def workflow_calls() -> list[str]:
    """The step name of every run: line, which must be one script call."""
    runs = re.findall(r"^\s*run:(.*)$", WORKFLOW, re.M)
    assert runs
    calls = []
    for body in runs:
        m = re.fullmatch(r" bash tests/ci_steps\.sh (\w+)", body)
        assert m, f"run: body is not a ci_steps.sh call: {body!r}"
        calls.append(m.group(1))
    return calls


def test_every_workflow_step_is_a_script_function():
    functions = script_functions()
    calls = workflow_calls()
    assert [c for c in calls if c not in functions] == []
    # each function is one step, called once
    assert sorted(calls) == sorted(functions)


def test_all_runs_every_step_but_the_pip_installs():
    listed = re.search(r"^LOCAL_STEPS=\(\n(.*?)^\)$", SCRIPT, re.M | re.S).group(1).split()
    functions = script_functions()
    local = [c for c in workflow_calls() if "pip install" not in functions[c]]
    assert listed == local
    assert len(functions) - len(local) == 2
