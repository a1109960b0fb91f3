"""Functional memory and timing caches."""

from .cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    paper_hierarchy,
    paper_l1d_config,
    paper_l1i_config,
    paper_l2_config,
)
from .main_memory import MainMemory

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "MainMemory",
    "paper_hierarchy",
    "paper_l1d_config",
    "paper_l1i_config",
    "paper_l2_config",
]
