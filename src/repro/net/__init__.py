"""Simulated network substrate: fabric, latency models, reliable channel."""

from .channel import Delivery, ReliableChannel
from .latency import FixedLatency, LanModel, LatencyModel, WanModel
from .message import Address, Message
from .network import LinkFault, Network
from .stats import NetworkStats

__all__ = [
    "Address",
    "Message",
    "Network",
    "LinkFault",
    "NetworkStats",
    "LatencyModel",
    "LanModel",
    "WanModel",
    "FixedLatency",
    "ReliableChannel",
    "Delivery",
]
