"""Bi-holes and balanced degenerate subgraphs of bipartite graphs.

Exact degree-sequence lower bounds, a deterministic constructive extractor
with replayable audit traces, brute-force oracles for ground truth, and a
CLI (``bihole``) tying them together.  The package exports exactly its
modules' ``__all__`` lists, each name declared once, where it is defined.
"""

from .bigraph import *
from .bounds import *
from .errors import *
from .extract import *
from .oracle import *

__version__ = "0.1.0"

__all__ = bigraph.__all__ + bounds.__all__ + errors.__all__ + extract.__all__ + oracle.__all__
