"""Group communication service: stack assembly, application endpoints
and stability tracking."""

from repro.gcs.endpoint import GroupEndpoint, RateLimitedConsumer
from repro.gcs.stability import StabilityState, StableMessage, WatermarkTracker
from repro.gcs.stack import GroupStack, StackConfig

__all__ = [
    "GroupStack",
    "StackConfig",
    "GroupEndpoint",
    "RateLimitedConsumer",
    "WatermarkTracker",
    "StabilityState",
    "StableMessage",
]
