"""Reliable delivery on top of the best-effort fabric.

The paper sends invalidation messages over TCP "and when the TCP message
fails, use periodic retry" (Section 4, failure handling).
:class:`ReliableChannel` packages exactly that as a callback: it re-sends
a failed message every ``retry_interval`` seconds and then calls
``on_done(delivered, *args)``.
"""

from __future__ import annotations

from typing import Callable, Optional

from .message import Message
from .network import Network

__all__ = ["ReliableChannel", "Delivery"]


class Delivery:
    """One reliable send in progress (see :meth:`ReliableChannel.deliver`)."""

    __slots__ = ("channel", "message", "on_done", "args", "attempts", "_timer")

    def __init__(self, channel, message: Message, on_done, args: tuple) -> None:
        self.channel = channel
        self.message = message
        self.on_done: Optional[Callable[..., None]] = on_done
        self.args = args
        self.attempts = 0
        self._timer = None

    def cancel(self) -> None:
        """Stop retrying; ``on_done`` is not called (a send in flight lands)."""
        self.on_done = None
        if self._timer is not None:
            self.channel.network.sim.cancel(self._timer)
            self._timer = None

    def _attempt(self) -> None:
        self._timer = None
        self.attempts += 1
        self.channel.network.send(self.message, self._sent)

    def _sent(self, delivered: bool) -> None:
        if self.on_done is None:
            return  # cancelled
        channel = self.channel
        limit = channel.max_retries
        if delivered or (limit is not None and self.attempts > limit):
            self.on_done(delivered, *self.args)
        else:
            self._timer = channel.network.sim.call_later(
                channel.retry_interval, self._attempt
            )


class ReliableChannel:
    """TCP-with-periodic-retry delivery.

    Args:
        network: the fabric to send over.
        retry_interval: seconds between a failed send and the next attempt.
        max_retries: give up after this many *re*-tries; ``None`` retries
            forever, matching the paper.
    """

    def __init__(
        self,
        network: Network,
        retry_interval: float = 30.0,
        max_retries: Optional[int] = None,
    ) -> None:
        if retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        self.network = network
        self.retry_interval = retry_interval
        self.max_retries = max_retries

    def deliver(self, message: Message, on_done, *args) -> Delivery:
        """Send ``message`` now, retrying until it lands or ``max_retries``.

        ``on_done(delivered, *args)`` runs where the last send reports its
        outcome: ``True`` right after the receiver's handler, ``False``
        when the channel gave up.  The returned :class:`Delivery` can be
        cancelled.
        """
        delivery = Delivery(self, message, on_done, args)
        delivery._attempt()
        return delivery
