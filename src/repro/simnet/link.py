"""Links: delay, jitter and loss models.

Each link direction has a :class:`DelayModel`.  The *average* delay
(``avg_us``) plays a special role: the paper's DEFINED-RB measures average
link delays before launching the control-plane software and uses them to
build the deterministic ``d_i`` estimates.  We expose exactly that split --
``sample_us`` draws an actual (jittered) delay from a seeded RNG stream,
while ``avg_us`` is the deterministic estimate the ordering function uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class DelayModel:
    """Per-direction link delay model.

    ``base_us`` is the propagation floor; the actual delay of each packet
    is ``base_us`` plus a uniform jitter in ``[0, jitter_us]``.  ``loss``
    is an independent drop probability (only meaningful on production
    networks; the DEFINED-LS debugging network uses the reliable transport
    from :mod:`repro.simnet.transport`).
    """

    base_us: int = 1_000
    jitter_us: int = 500
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.base_us < 0 or self.jitter_us < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")

    @property
    def avg_us(self) -> int:
        """The deterministic average delay used for d_i estimates."""
        return self.base_us + self.jitter_us // 2

    def sample_us(self, rng: random.Random) -> int:
        """Draw one actual packet delay."""
        if self.jitter_us == 0:
            return self.base_us
        return self.base_us + rng.randrange(self.jitter_us + 1)

    def sample_loss(self, rng: random.Random) -> bool:
        """Return True if the packet should be dropped."""
        return self.loss > 0.0 and rng.random() < self.loss


class Link:
    """An undirected link between two nodes; one delay model serves both
    directions.

    The link owns its up/down state; the :class:`~repro.simnet.network.Network`
    flips it in response to external events and refuses to carry packets
    while it is down.
    """

    __slots__ = ("a", "b", "model", "up", "link_id")

    def __init__(self, a: str, b: str, model: DelayModel = DelayModel()) -> None:
        if a == b:
            raise ValueError("self-links are not supported")
        self.a = a
        self.b = b
        self.model = model
        self.up = True
        self.link_id = f"{min(a, b)}~{max(a, b)}"

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node} is not an endpoint of {self.link_id}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.link_id} {state} avg={self.model.avg_us}us>"
