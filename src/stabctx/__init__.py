"""stabctx: exact strong-contextuality certificates for multi-qudit magic
states under stabilizer measurements, plus a contextual-fraction LP."""

__version__ = "0.1.0"

from .zmod import Modulus, ZdPoly, parse_poly
from .phase_space import Context, PhasePoint
from .states import PhaseFunctionState
from .born import EmpiricalModel, JointOutcome
from .hidden_vars import (
    StrongContextualityCertificate,
    contextual_fraction,
    decide_strong_contextuality,
)

__all__ = [
    "Modulus",
    "ZdPoly",
    "parse_poly",
    "Context",
    "PhasePoint",
    "PhaseFunctionState",
    "EmpiricalModel",
    "JointOutcome",
    "StrongContextualityCertificate",
    "contextual_fraction",
    "decide_strong_contextuality",
    "__version__",
]
