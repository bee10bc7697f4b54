"""Typed failures shared across the pipeline."""
from __future__ import annotations


class BugReplayError(Exception):
    pass


class BudgetUnsatisfiable(BugReplayError):
    """Prompt cannot fit the token budget even at minimum exemplar count."""


class NoStepsFound(BugReplayError):
    """Model response contained no numbered bracket lines at all."""


class MalformedStep(BugReplayError):
    """A numbered bracket line could not be bound to a valid step."""

    def __init__(self, line: str, reason: str = ""):
        self.line = line
        self.reason = reason
        detail = f"{line!r}" + (f" ({reason})" if reason else "")
        super().__init__(f"malformed step line: {detail}")


class CycleDetected(BugReplayError):
    """A view hierarchy revisited a node; dumps must be finite trees."""


class UnknownId(BugReplayError):
    """Component id not present in the encoded screen."""

    def __init__(self, component_id):
        self.component_id = component_id
        super().__init__(f"unknown component id: {component_id!r}")


class NoActionableAnswer(BugReplayError):
    """Guidance response carried neither a component id nor a missing marker."""


class DeviceError(BugReplayError):
    pass


class TransportError(BugReplayError):
    """Live completion endpoint unreachable or persistently failing."""


class TranscriptExhausted(BugReplayError):
    """Strict-sequence transcript has no entries left."""


class UnmatchedPrompt(BugReplayError):
    """Keyed transcript holds no response for this prompt digest."""

    def __init__(self, digest: str):
        self.digest = digest
        super().__init__(f"no transcript entry for prompt digest {digest}")
