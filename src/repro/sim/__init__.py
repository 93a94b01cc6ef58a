"""Discrete-event simulation substrate for the ESP4ML reproduction."""

from .kernel import (
    AllOf,
    AnyOf,
    Condition,
    DeadlockError,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .channels import Barrier, Fifo, ProgressCounter, Resource, Semaphore

__all__ = [
    "AllOf",
    "AnyOf",
    "Barrier",
    "Condition",
    "DeadlockError",
    "Environment",
    "Event",
    "Fifo",
    "Interrupt",
    "Process",
    "ProgressCounter",
    "Resource",
    "Semaphore",
    "SimulationError",
    "Timeout",
]
