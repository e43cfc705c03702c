"""``repro.inference`` — online and offline inference paths."""

from .offline import (
    CampaignEstimate,
    campaign_comparison,
    ndpipe_campaign,
    srv_campaign,
)
from .online import (
    OnlineBatchLatencyModel,
    OnlineLatencyModel,
    batched_online_latency,
    online_latency,
)

__all__ = [
    "CampaignEstimate", "ndpipe_campaign", "srv_campaign",
    "campaign_comparison",
    "OnlineLatencyModel", "online_latency",
    "OnlineBatchLatencyModel", "batched_online_latency",
]
