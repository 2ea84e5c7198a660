"""Configuration of the conversion rules.

Defaults reproduce the annotation of tags from Section 4:

* punctuation used in tokenization: ``;``, ``,``, ``:``
* group tags: headings, ``div``, ``p``, ``tr``, ``dt``, ``dd``, ``li``,
  ``title``, ``u``, ``strong``, ``b``, ``em``, ``i`` (weighted)
* list tags: ``body``, ``table``, ``dl``, ``ul``, ``ol``, ``dir``, ``menu``

Only the rules' behaviour is configurable.  Parsing, cleansing and
synonym matching each have one implementation; the legacy forms they
replaced are test oracles under ``tests/oracles/``, not options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlparse.taginfo import DEFAULT_GROUP_TAG_WEIGHTS, DEFAULT_LIST_TAGS

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
    list_tags: frozenset[str] = DEFAULT_LIST_TAGS
    apply_tidy: bool = True
    tagger: str = "synonym"
    # Minimum number of equal-tag sibling leaders required before the
    # grouping rule fires for that tag (2 = repeated markup only).
    min_group_leaders: int = 2
    # Minimum characters for a token to be worth classifying; shorter
    # fragments (stray bullets, lone punctuation survivors) pass straight
    # to the parent's ``val``.
    min_token_length: int = 1
    # Split tokens in which the synonym matcher finds several instances
    # (Section 2.3.1, case 1, second paragraph).
    split_multi_instance_tokens: bool = True
    # Consult sibling constraints when decomposing multi-instance tokens.
    use_sibling_constraints: bool = True
    # Connector words: consecutive instance matches separated only by
    # these words belong to one named entity ("University OF California
    # AT Davis") and are merged instead of split.
    merge_connectors: frozenset[str] = frozenset(
        {"of", "at", "the", "in", "for", "and", "&", "de", "la", "del", "von"}
    )
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
