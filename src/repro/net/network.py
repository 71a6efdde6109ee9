"""The network fabric: registration, delivery, failures and partitions.

Delivery semantics model a TCP connection at the granularity the paper
cares about:

* A send to a reachable, live node is delivered after the latency model's
  one-way delay.  A sender that passes ``on_sent`` to :meth:`Network.send`
  hears ``on_sent(True, *args)`` right after the destination's handler
  has run (the sender can treat that as "the TCP send completed").
* A send to a down node or across a partition is refused after
  ``connect_timeout`` seconds, mirroring a refused/timed-out connection:
  ``on_sent(False, *args)``.  A sender that passes no ``on_sent`` is
  fire-and-forget; every send takes the same delivery route either way.
* A crashed *sender* cannot transmit either: its sends fail the same way,
  so work that outlives its host (e.g. a parent cache's INVALIDATE
  forwarding) retries instead of teleporting messages.
* Reachability is also re-checked at delivery time, so a node that dies (or
  a partition that forms) while a message is in flight loses the message.

Chaos extensions:

* Partitions are individually removable: :meth:`Network.partition` returns
  a handle, and :meth:`Network.heal` takes an optional handle so
  overlapping partition faults heal independently.
* Per-link faults (:class:`LinkFault`): seeded probabilistic message loss
  and duplication plus latency spikes/jitter (which reorder messages) on a
  directed ``src -> dst`` link, with ``"*"`` wildcards.  Losses are
  recorded with a reason so chaos reports can reconcile sent vs delivered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from ..sim import Simulator
from .latency import LanModel, LatencyModel
from .message import Address, Message
from .stats import NetworkStats

__all__ = ["Network", "LinkFault"]


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic misbehaviour injected on one directed link.

    Attributes:
        drop_prob: probability a message on the link is silently lost
            (the sender sees a connect-timeout failure, like a TCP send
            that never got its ACK; reliable channels retry).
        dup_prob: probability a delivered message is delivered twice
            (receivers must be idempotent).
        extra_delay: fixed latency spike added to every message.
        jitter: uniform [0, jitter] extra seconds per message; enough
            jitter reorders back-to-back messages.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0 or not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        if not (math.isfinite(self.extra_delay) and math.isfinite(self.jitter)):
            raise ValueError("extra_delay and jitter must be finite")
        if self.extra_delay < 0 or self.jitter < 0:
            raise ValueError("extra_delay and jitter must be non-negative")


class Network:
    """Connects registered nodes and moves :class:`Message`s between them."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        connect_timeout: float = 3.0,
    ) -> None:
        self.sim = sim
        self.latency = latency or LanModel()
        self.stats = NetworkStats()
        self.connect_timeout = connect_timeout
        self._handlers: Dict[Address, Callable[[Message], None]] = {}
        self._down: Set[Address] = set()
        self._partitions: Dict[int, Tuple[frozenset, frozenset]] = {}
        self._partition_seq = 0
        # (src, dst) -> (LinkFault, rng); "*" acts as a wildcard side.
        self._link_faults: Dict[Tuple[Address, Address],
                                Tuple[LinkFault, random.Random]] = {}

    # -- topology -----------------------------------------------------------

    def register(self, address: Address, handler: Callable[[Message], None]) -> None:
        """Attach a node; ``handler(message)`` runs at each delivery."""
        if address in self._handlers:
            raise ValueError(f"address {address!r} already registered")
        self._handlers[address] = handler

    # -- failures -----------------------------------------------------------

    def set_down(self, address: Address) -> None:
        """Mark a node as crashed; sends to it fail until :meth:`set_up`."""
        self._down.add(address)

    def set_up(self, address: Address) -> None:
        """Bring a crashed node back."""
        self._down.discard(address)

    def is_up(self, address: Address) -> bool:
        """True when the node is registered and not crashed."""
        return address in self._handlers and address not in self._down

    def partition(
        self, group_a: Iterable[Address], group_b: Iterable[Address]
    ) -> int:
        """Cut connectivity between every pair across the two groups.

        Returns a handle that :meth:`heal` accepts, so overlapping
        partitions (chaos schedules) can be removed independently.
        """
        self._partition_seq += 1
        self._partitions[self._partition_seq] = (
            frozenset(group_a),
            frozenset(group_b),
        )
        return self._partition_seq

    def heal(self, handle: Optional[int] = None) -> None:
        """Remove one partition (by handle) or all of them (no handle)."""
        if handle is None:
            self._partitions.clear()
        else:
            self._partitions.pop(handle, None)

    def is_reachable(self, src: Address, dst: Address) -> bool:
        """True when no partition separates ``src`` from ``dst``."""
        for group_a, group_b in self._partitions.values():
            if (src in group_a and dst in group_b) or (
                src in group_b and dst in group_a
            ):
                return False
        return True

    # -- link faults ---------------------------------------------------------

    def set_link_fault(
        self,
        src: Address,
        dst: Address,
        fault: LinkFault,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Install a :class:`LinkFault` on the directed ``src -> dst`` link.

        ``"*"`` on either side matches any address.  Replaces any fault
        already installed on the same (src, dst) pair.
        """
        self._link_faults[(src, dst)] = (fault, rng or random.Random(0))

    def clear_link_fault(self, src: Address, dst: Address) -> None:
        """Remove the fault installed on the directed ``src -> dst`` link."""
        self._link_faults.pop((src, dst), None)

    def _fault_for(
        self, src: Address, dst: Address
    ) -> Optional[Tuple[LinkFault, random.Random]]:
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            hit = self._link_faults.get(key)
            if hit is not None:
                return hit
        return None

    # -- transport ------------------------------------------------------------

    def send(
        self,
        message: Message,
        on_sent: Optional[Callable[..., None]] = None,
        *args,
    ) -> None:
        """Send a message; ``on_sent(delivered, *args)`` reports the outcome.

        ``on_sent(True, *args)`` runs at delivery time, right after the
        destination's handler.  ``on_sent(False, *args)`` runs after the
        connect timeout when the send is refused, or when the message is
        lost in flight (the channel layer is the place for retry logic).
        A duplicate delivery calls nobody.  With no ``on_sent`` the send is
        fire-and-forget; reachability checks, stats, latency, link-fault
        draws in the same RNG order and delivery timing are the same either
        way.
        """
        src, dst = message.src, message.dst
        if dst not in self._handlers:
            self.sim.call_later(
                self.connect_timeout, self._fail,
                message, "unknown address", False, on_sent, args,
            )
            return
        if (
            src in self._down
            or dst in self._down
            or (self._partitions and not self.is_reachable(src, dst))
        ):
            self.sim.call_later(
                self.connect_timeout, self._fail,
                message, "host unreachable", False, on_sent, args,
            )
            return

        self.stats.record_send(message)
        delay = self.latency.delay(message)
        duplicate_delay: Optional[float] = None
        fault_hit = self._fault_for(src, dst) if self._link_faults else None
        if fault_hit is not None:
            fault, rng = fault_hit
            if fault.drop_prob > 0 and rng.random() < fault.drop_prob:
                # The segment vanished: the sender times out waiting for
                # the ACK, exactly like a connect failure, but the loss is
                # recorded as such for sent-vs-delivered reconciliation.
                self.sim.call_later(
                    self.connect_timeout, self._fail,
                    message, "link fault", True, on_sent, args,
                )
                return
            delay += fault.extra_delay
            if fault.jitter > 0:
                delay += rng.uniform(0.0, fault.jitter)
            if fault.dup_prob > 0 and rng.random() < fault.dup_prob:
                duplicate_delay = fault.extra_delay + self.latency.delay(message)
                if fault.jitter > 0:
                    duplicate_delay += rng.uniform(0.0, fault.jitter)

        self.sim.call_later(delay, self._deliver, message, False, on_sent, args)
        if duplicate_delay is not None:
            self.sim.call_later(
                duplicate_delay, self._deliver, message, True, None, ()
            )

    def _fail(
        self, message: Message, reason: str, lost: bool, on_sent, args: tuple
    ) -> None:
        """Record a failed send and report it to ``on_sent``, if any.

        ``lost`` marks a message that was sent and then vanished (counted
        as a loss with ``reason``); otherwise it was refused at connect
        time (counted as a drop).
        """
        if lost:
            self.stats.record_loss(message, reason)
        else:
            self.stats.record_drop(message)
        if on_sent is not None:
            on_sent(False, *args)

    def _deliver(
        self, message: Message, duplicate: bool, on_sent, args: tuple
    ) -> None:
        """Hand ``message`` to its destination's handler, if still reachable.

        Reachability is re-checked here: the destination may have crashed
        or been partitioned away while the message was in flight.  A lost
        duplicate just vanishes; nobody tracks it.
        """
        dst = message.dst
        if dst in self._down:
            reason = "destination died in flight"
        elif self._partitions and not self.is_reachable(message.src, dst):
            reason = "partition formed in flight"
        else:
            if duplicate:
                self.stats.record_duplicate(message)
            else:
                self.stats.record_delivery(message)
            self._handlers[dst](message)
            if on_sent is not None:
                on_sent(True, *args)
            return
        if not duplicate:
            self._fail(message, reason, True, on_sent, args)
