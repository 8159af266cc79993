"""Baseline search structures the paper compares against."""

from .aesa import AESA
from .balltree import BallTree
from ..index.protocol import Index
from .brute import BruteForceIndex
from .covertree import CoverTree
from .gnat import GNAT
from .kdtree import KDTree
from .vptree import VPTree

__all__ = ["AESA", "BallTree", "Index", "BruteForceIndex", "CoverTree", "GNAT", "KDTree", "VPTree"]
