"""Configuration of the conversion rules.

The rules follow the annotation of tags from Section 4:

* punctuation used in tokenization: ``;``, ``,``, ``:``
* group tags: headings, ``div``, ``p``, ``tr``, ``dt``, ``dd``, ``li``,
  ``title``, ``u``, ``strong``, ``b``, ``em``, ``i`` (weighted)
* list tags: ``body``, ``table``, ``dl``, ``ul``, ``ol``, ``dir``, ``menu``

The list tags and the rules' other fixed parameters are constants of
the rule modules: multi-instance tokens split, sibling constraints veto
a split, connector words merge matches into one named entity, and a
group needs two leaders of one tag.  What callers set here is the
tokenization punctuation, the group tag weights, whether to tidy, the
instance-identification channel and the fault-injection markers.
Parsing, cleansing and synonym matching each have one implementation;
the legacy forms they replaced are test oracles under
``tests/oracles/``, not options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlparse.taginfo import DEFAULT_GROUP_TAG_WEIGHTS

DEFAULT_DELIMITERS = (";", ",", ":")


@dataclass
class ConversionConfig:
    """Knobs of the document conversion process.

    ``tagger`` selects the instance-identification channel: ``"synonym"``
    (keyword/pattern matching), ``"bayes"`` (a trained classifier must be
    supplied to the converter), or ``"hybrid"`` (synonyms first, Bayes for
    tokens the synonym matcher leaves unidentified).
    """

    delimiters: tuple[str, ...] = DEFAULT_DELIMITERS
    group_tag_weights: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_GROUP_TAG_WEIGHTS)
    )
    apply_tidy: bool = True
    tagger: str = "synonym"
    # Chaos-testing hooks (fault-injection suite + chaos-smoke CI job).
    # When a source document contains ``chaos_fail_marker`` the pipeline
    # raises InjectedFaultError (stage "inject"); when it contains
    # ``chaos_kill_marker`` an engine *worker process* hard-exits before
    # converting it (os._exit -- exercises BrokenProcessPool recovery;
    # ignored on the inline/serial paths, which have no worker to kill).
    chaos_fail_marker: str | None = None
    chaos_kill_marker: str | None = None

    def __post_init__(self) -> None:
        if self.tagger not in ("synonym", "bayes", "hybrid"):
            raise ValueError(f"unknown tagger: {self.tagger!r}")
        if not self.delimiters:
            raise ValueError("at least one delimiter is required")
        for delimiter in self.delimiters:
            if len(delimiter) != 1:
                raise ValueError(f"delimiters must be single characters: {delimiter!r}")
