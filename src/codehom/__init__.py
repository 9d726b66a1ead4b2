"""Code-based homomorphic encryption over binary extension fields.

A trapdoored Vandermonde public-key scheme with pointwise ciphertext
operations, reencryption chains that trade length for error, an expander
booster, and a replicated layered evaluator composed from all of the above.
"""

from .errors import (
    BoundFailure,
    CodehomError,
    ConstructionError,
    DataFormatError,
    ParameterError,
    UsageError,
)
from .field import FieldElement, FieldSpec

__all__ = [
    "BoundFailure",
    "CodehomError",
    "ConstructionError",
    "DataFormatError",
    "FieldElement",
    "FieldSpec",
    "ParameterError",
    "UsageError",
]
