"""Shared utilities: RNG management, timing, serialization, validation."""

from .lru import LRUCache
from .rng import ensure_rng, make_rng, spawn_rngs
from .serialization import (
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
    to_jsonable,
)
from .timing import Timer
from .validation import (
    check_image_batch,
    check_in_unit_interval,
    check_labels,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "LRUCache",
    "ensure_rng",
    "make_rng",
    "spawn_rngs",
    "Timer",
    "save_state_dict",
    "load_state_dict",
    "save_json",
    "load_json",
    "to_jsonable",
    "check_positive",
    "check_non_negative",
    "check_in_unit_interval",
    "check_probability",
    "check_image_batch",
    "check_labels",
]
