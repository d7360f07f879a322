"""Exception hierarchy with machine-readable codes for CLI error reporting."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all package errors."""

    code = "error"


class DegenerateDistanceError(SimulationError):
    """Two stations relevant to an SINR evaluation coincide."""

    code = "degenerate-distance"


class UnboundedRangeError(SimulationError):
    """Zero ambient noise makes the transmission range infinite."""

    code = "unbounded-range"


class DisconnectedInstanceError(SimulationError):
    """The induced communication graph is not connected."""

    code = "disconnected-instance"


class NoDilutionError(SimulationError):
    """No dilution constant up to the cap satisfies the interference bound."""

    code = "no-dilution"


class TokenDeliveryError(SimulationError):
    """A token grant was not received by the addressed node."""

    code = "token-delivery"


class MessageSizeError(SimulationError):
    """A message exceeded the configured O(lg N) size budget."""

    code = "message-size"


class ExactBranchTooLargeError(SimulationError):
    """Exact minimum-CDS search was asked of an instance past its size cap."""

    code = "exact-branch-too-large"


class RetryCapError(SimulationError):
    """Instance generation exhausted its rejection-sampling budget."""

    code = "retry-cap"


class InvalidArgumentError(SimulationError, ValueError):
    """A command-line flag value is outside its valid range."""

    code = "invalid-argument"


class InstanceFormatError(SimulationError):
    """An instance file failed validation."""

    code = "instance-format"
