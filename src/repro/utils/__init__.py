"""Small shared utilities: seeded RNG handling, validation, table formatting."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_vector,
)
from repro.utils.tables import format_table

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_vector",
    "format_table",
]
