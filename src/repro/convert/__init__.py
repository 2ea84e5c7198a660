"""Document conversion: HTML trees to concept-tagged XML (Section 2).

The four restructuring rules, applied in order by
:class:`repro.convert.pipeline.DocumentConverter`:

1. :mod:`repro.convert.tokenize_rule` -- text nodes to ``<TOKEN>`` nodes
   at punctuation delimiters (text rule 1).
2. :mod:`repro.convert.instance_rule` -- tokens to concept elements, with
   unidentified text pushed to the parent's ``val`` (text rule 2).
3. :mod:`repro.convert.grouping_rule` -- siblings between repeated group
   tags sink under ``GROUP`` nodes (structure rule 1).
4. :mod:`repro.convert.consolidation_rule` -- bottom-up elimination of all
   remaining HTML/temporary markup (structure rule 2).
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".config": ("ConversionConfig",),
    ".pipeline": ("DocumentConverter", "ConversionResult"),
    ".linked": ("LinkedDocumentConverter", "LinkedConversionResult"),
    ".tokenize_rule": ("apply_tokenization_rule", "TOKEN_TAG"),
    ".instance_rule": ("apply_instance_rule",),
    ".grouping_rule": ("apply_grouping_rule",),
    ".consolidation_rule": ("apply_consolidation_rule",),
})
