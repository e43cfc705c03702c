"""AWS on-demand cost model (§7.2, Fig. 21).

Prices are the us-east-1 on-demand rates of the paper's instance types,
taken from the AWS pricing tool the authors used.  Cost of a run is simply
``sum(instance price) x wall-clock hours``; storage (st1) is billed per
GB-month and identical across configurations, so it cancels out of the
comparison exactly as in the paper.
"""

from __future__ import annotations

from typing import Iterable

from .specs import ServerSpec


def fleet_price_per_hour(servers: Iterable[ServerSpec]) -> float:
    """Total $/hour of a set of running instances."""
    return sum(s.price_per_hour for s in servers)


def run_cost(servers: Iterable[ServerSpec], seconds: float) -> float:
    """Dollar cost of running the fleet for ``seconds``."""
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    return fleet_price_per_hour(servers) * seconds / 3600.0
