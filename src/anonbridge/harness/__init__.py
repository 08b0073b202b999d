"""Scenario harness: configuration, simulation driver, builtin attack
library, transcripts, cost metrics, and linkability analysis."""

from .config import ScenarioConfig
from .linkability import analyze_linkability
from .metrics import measure_depth, sweep_depths
from .scenarios import (
    ATTACK_MATRIX,
    BUILTINS,
    RunResult,
    builtin_config,
    run_scenario,
)
from .simulation import Simulation, Verdict
from .transcript import Transcript

__all__ = [
    "ScenarioConfig",
    "Simulation",
    "Verdict",
    "Transcript",
    "ATTACK_MATRIX",
    "BUILTINS",
    "RunResult",
    "builtin_config",
    "run_scenario",
    "measure_depth",
    "sweep_depths",
    "analyze_linkability",
]
