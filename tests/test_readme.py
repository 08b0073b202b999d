"""The scenario examples documented in README.md stay runnable."""

import re
from pathlib import Path

from anonbridge.harness import ScenarioConfig, run_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_json_example_runs_and_passes():
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert examples
    for text in examples:
        result = run_scenario(ScenarioConfig.from_json(text))
        assert result.passed, [v for v in result.verdicts if not v.passed]
