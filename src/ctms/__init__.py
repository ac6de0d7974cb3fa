"""Coordinate term mining from a single seed over web list structures."""

from .corpus import FixtureProvider, SearchProvider, load_fixture
from .metrics import load_gold
from .pipeline import MiningReport, PipelineConfig, evaluate, mine

__all__ = [
    "FixtureProvider",
    "MiningReport",
    "PipelineConfig",
    "SearchProvider",
    "evaluate",
    "load_fixture",
    "load_gold",
    "mine",
]

__version__ = "0.1.0"
