"""Interaction substrate: the user-agent protocol and its implementations."""

from repro.interaction.base import (
    ProjectionView,
    ThresholdSweep,
    UserAgent,
    UserDecision,
    validate_decision,
)
from repro.interaction.heuristic import HeuristicUser
from repro.interaction.oracle import OracleUser, f1_score, fbeta_score
from repro.interaction.scripted import (
    AcceptEverythingUser,
    CallbackUser,
    FixedThresholdUser,
    ScriptedUser,
)
from repro.interaction.terminal import TerminalUser

__all__ = [
    "ProjectionView",
    "UserDecision",
    "UserAgent",
    "ThresholdSweep",
    "validate_decision",
    "OracleUser",
    "f1_score",
    "fbeta_score",
    "HeuristicUser",
    "ScriptedUser",
    "FixedThresholdUser",
    "CallbackUser",
    "AcceptEverythingUser",
    "TerminalUser",
]
