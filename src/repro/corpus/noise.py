"""HTML malformation injection.

Real crawled HTML of the paper's era was rarely well-formed; Section 2.4
notes the rules tolerate this and that cleansing (HTML Tidy) improves
accuracy.  This module produces controlled malformations for the
resilience ablation (experiment E6).  All transformations operate on the
HTML source text so the parser really has to cope with them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


@dataclass
class NoiseConfig:
    """The noise level: ``rate`` scales every malformation's probability
    (each evaluated independently); ``NoiseConfig(rate=0)`` is a no-op.
    """

    rate: float = 0.3

    def scaled(self, p: float) -> float:
        return min(1.0, p * self.rate)


_CLOSE_TAG_RE = re.compile(r"</(li|p|td|tr|dd|dt|font|b|i|u)>", re.IGNORECASE)
_HEADING_CLOSE_RE = re.compile(r"</(h[1-6])>", re.IGNORECASE)
_OPEN_TAG_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9]*)((?:\s[^<>]*)?)>")
_QUOTED_ATTR_RE = re.compile(r'(\s[a-zA-Z-]+=)"([A-Za-z0-9]+)"')


def inject_noise(
    html: str, rng: random.Random, config: NoiseConfig | None = None
) -> str:
    """Return a malformed variant of ``html``.

    Deterministic for a given ``rng`` state.  The logical content is
    never changed -- only the markup degrades -- so ground truth built
    from the clean data model remains valid.
    """
    config = config or NoiseConfig()
    if config.rate <= 0:
        return html

    html = _CLOSE_TAG_RE.sub(
        lambda m: "" if rng.random() < config.scaled(0.5) else m.group(0),
        html,
    )
    # A dropped </h2> makes the heading swallow the section body -- the
    # malformation HTML Tidy's heading repair exists for.
    html = _HEADING_CLOSE_RE.sub(
        lambda m: "" if rng.random() < config.scaled(0.35) else m.group(0),
        html,
    )
    html = _OPEN_TAG_RE.sub(
        lambda m: (
            f"<{m.group(1).upper()}{m.group(2)}>"
            if rng.random() < config.scaled(0.4)
            else m.group(0)
        ),
        html,
    )
    html = _QUOTED_ATTR_RE.sub(
        lambda m: (
            f"{m.group(1)}{m.group(2)}"
            if rng.random() < config.scaled(0.6)
            else m.group(0)
        ),
        html,
    )
    lines = html.split("\n")
    for index in range(len(lines)):
        if rng.random() < config.scaled(0.1):
            lines[index] = "<font>" + lines[index]
    html = "\n".join(lines)
    if rng.random() < config.scaled(0.5):
        html = html.replace("<b>", "<b><b>", 1)
    return html
