"""The pipeline's one config object, validated once at construction.

Every stage reads its parameters from a `PipelineConfig`.  Values are
checked for type and range in `__post_init__` and rejected, never coerced,
so a bad config fails at load with a message naming the field instead of
mid-run.  A ``bool`` is not accepted where an int is expected; an int is
accepted where a float is expected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn

# Integer fields and their smallest allowed value.
_INT_MINIMUMS = {
    "tau": 1,
    "top_n": 1,
    "max_candidate_len": 1,
    "snippet_results": 1,
    "kappa": 1,
    "min_distinct_seeds": 2,
    "pages_per_query": 1,
    "context_window": 1,  # 0 would slice the context as [-0:], the whole text
    "max_iters": 1,
    "affix_min_n": 1,
}


def _is_int(value: Any, minimum: int) -> bool:
    return type(value) is int and value >= minimum


def _is_number(value: Any) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _reject(name: str, value: Any, expected: str) -> NoReturn:
    raise ValueError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every stage parameter in one place; defaults are the working set."""

    clue_words: tuple[str, ...] = ("和", "比")
    tau: int = 2  # keep candidates with score strictly above this
    top_n: int = 5
    max_candidate_len: int = 10  # characters
    snippet_results: int = 200
    kappa: int = 4  # minimum combined context length when not punctuation
    min_distinct_seeds: int = 2
    pages_per_query: int = 10
    context_window: int = 200  # rendered characters on each side
    sim_lambda: float = 0.5
    cluster_threshold: float = 0.65
    min_support: float = 0.05
    restart_prob: float = 0.2
    tolerance: float = 0.001
    max_iters: int = 1000
    affix_min_n: int = 1
    affix_max_n: int = 3
    disambiguation: bool = True

    def __post_init__(self) -> None:
        words = self.clue_words
        if not (type(words) is tuple and words and all(type(w) is str and w for w in words)):
            _reject("clue_words", words, "a non-empty list of non-empty strings")
        if len(set(words)) != len(words):
            _reject("clue_words", words, "a list without repeated words")
        for name, minimum in _INT_MINIMUMS.items():
            if not _is_int(getattr(self, name), minimum):
                _reject(name, getattr(self, name), f"an int >= {minimum}")
        low, high = self.affix_min_n, self.affix_max_n
        if not _is_int(high, low):
            _reject("affix_max_n", high, f"an int >= affix_min_n ({low})")
        for name in ("sim_lambda", "cluster_threshold", "min_support"):
            value = getattr(self, name)
            if not (_is_number(value) and 0 <= value <= 1):
                _reject(name, value, "a number in [0, 1]")
        theta = self.restart_prob
        if not (_is_number(theta) and 0 < theta < 1):
            _reject("restart_prob", theta, "a number in (0, 1)")
        if not (_is_number(self.tolerance) and self.tolerance > 0):
            _reject("tolerance", self.tolerance, "a positive number")
        if type(self.disambiguation) is not bool:
            _reject("disambiguation", self.disambiguation, "true or false")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Any) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("clue_words"), list):
            data = dict(data, clue_words=tuple(data["clue_words"]))
        return cls(**data)
