"""Exception hierarchy for the reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or out of range."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent or impossible state."""


class InvariantViolation(SimulationError):
    """A model invariant failed under fault injection (see ``repro.faults``).

    Carries the replayable fault-plan dump that produced the violation, so a
    failure observed once can be reproduced byte-identically:
    ``FaultPlan.loads(exc.plan_dump)`` rebuilds the exact schedule.
    ``engine_flags`` records the engine tiers active when the violation
    fired (``REPRO_FAST``/``REPRO_MACRO``/``REPRO_JOBS``) —
    a dumped repro must re-run under the same tiers that produced it.
    """

    def __init__(
        self,
        message: str,
        plan_dump: "str | None" = None,
        engine_flags: "dict[str, str] | None" = None,
    ) -> None:
        if plan_dump is not None:
            message = f"{message}\nreplay fault plan: {plan_dump}"
        if engine_flags is not None:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(engine_flags.items()))
            message = f"{message}\nengine flags: {rendered}"
        super().__init__(message)
        self.plan_dump = plan_dump
        self.engine_flags = dict(engine_flags) if engine_flags is not None else None


class ProtocolError(ReproError):
    """An architectural protocol was violated (e.g. uiret outside a handler)."""
