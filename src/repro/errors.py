"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors
(``TypeError`` etc.). Simulation-control exceptions (``Interrupt``,
``StopSimulation``) intentionally do *not* derive from :class:`ReproError`
because they are control flow, not failures; they live in
:mod:`repro.sim.kernel`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "MemoryAccessError",
    "ProtectionError",
    "RDMAError",
    "QPError",
    "OperationTimeout",
    "StoreError",
    "KeyNotFoundError",
    "PoolExhaustedError",
    "CorruptObjectError",
    "RecoveryError",
    "PowerFailure",
    "ConfigError",
    "WorkloadError",
    "ConsistencyViolation",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. yielding a
    non-event, running a finished environment backwards in time)."""


class MemoryAccessError(ReproError):
    """An access fell outside a registered buffer or memory region."""


class ProtectionError(MemoryAccessError):
    """A remote access violated a memory region's protection settings
    (bad rkey, write to a read-only region, ...)."""


class RDMAError(ReproError):
    """Generic RDMA fabric failure (disconnected QP, flushed WR, ...)."""


class QPError(RDMAError):
    """A queue-pair level failure: posting to a dead QP, receive queue
    underflow for two-sided traffic, and similar conditions.

    ``code`` lets retry policies distinguish fault classes without
    parsing messages: ``"qp_error"`` (error-state transition),
    ``"completion_lost"`` (dropped completion), ``"target_down"``
    (node crash), ...
    """

    def __init__(self, message: str = "", code: str = "qp_error") -> None:
        super().__init__(message)
        self.code = code


class OperationTimeout(RDMAError):
    """A client-side operation exceeded its resilience-policy deadline
    before its completion (or RPC response) arrived."""


class StoreError(ReproError):
    """Base class for key-value store protocol errors."""


class KeyNotFoundError(StoreError):
    """GET/DELETE referenced a key that is not present."""


class PoolExhaustedError(StoreError):
    """The log-structured data pool has no space for an allocation and
    log cleaning could not reclaim enough."""


class CorruptObjectError(StoreError):
    """An object failed integrity verification and no intact previous
    version exists on its version list."""


class RecoveryError(StoreError):
    """Post-crash recovery could not rebuild a consistent image."""


class PowerFailure(ReproError):
    """The simulated node lost power mid-operation.

    Raised *inside* the process that was executing when an injected
    ``crash`` fault fired; the simulation kernel escalates it out of
    ``env.run()`` to the crash harness, which then restarts the node and
    runs recovery. Deliberately not a :class:`QPError`/:class:`RpcFault`
    so client retry machinery can never swallow a power failure.
    """


class ConfigError(ReproError):
    """Invalid configuration value."""


class WorkloadError(ConfigError):
    """Invalid workload specification."""


class ConsistencyViolation(ReproError):
    """Raised by the crash-consistency oracle when a store returns a value
    that violates its advertised guarantee (e.g. torn object, or a
    non-monotonic read for a store that promises monotonicity)."""
