"""Refined Donaldson-Thomas series of toric quivers.

The pipeline runs from a brane tiling or periodic quiver with potential,
through its cuts and zig-zag data, to molten-crystal enumeration, refined
localization indices, and framed series in a twisted series algebra with
inverse and plethystic Exp/Log.
"""

from __future__ import annotations

__version__ = "0.1.0"
