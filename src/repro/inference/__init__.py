"""``repro.inference`` — offline relabel campaign estimates."""

from .offline import (
    CampaignEstimate,
    campaign_comparison,
    ndpipe_campaign,
    srv_campaign,
)

__all__ = [
    "CampaignEstimate", "ndpipe_campaign", "srv_campaign",
    "campaign_comparison",
]
