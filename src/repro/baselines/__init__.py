"""Comparator DVFS policies.

Paper comparators (§V-B): adapted PCSTALL and F-LEMMA.  Extension: an
ondemand-style utilization governor.
"""

from .flemma import FLEMMAPolicy
from .governor import UtilizationGovernor
from .pcstall import PCSTALLPolicy

__all__ = ["FLEMMAPolicy", "PCSTALLPolicy", "UtilizationGovernor"]
