"""Random-walk engine and pre-computed walk indexes."""

from repro.walks.engine import simulate_walk_stops, single_walk
from repro.walks.index import (
    WalkIndex,
    build_walk_index,
    fora_plus_walk_counts,
    speedppr_walk_counts,
)
from repro.walks.storage import load_walk_index, save_walk_index, stored_size_bytes

__all__ = [
    "simulate_walk_stops",
    "single_walk",
    "WalkIndex",
    "build_walk_index",
    "fora_plus_walk_counts",
    "speedppr_walk_counts",
    "save_walk_index",
    "load_walk_index",
    "stored_size_bytes",
]
