"""Simulated resume corpus + topic-specific crawler.

The paper evaluates on "resumes marked up in HTML and which have been
gathered by a Web crawler" programmed "to crawl the Web looking for HTML
documents that looked like resumes" (Section 4).  That corpus is
proprietary and long gone; this package is the substitution documented
in DESIGN.md: a deterministic generator that renders one logical resume
data model through many authorship styles with optional malformation
noise -- giving exactly the paper's premise (homogeneous content,
heterogeneous visual markup) *plus* machine-checkable ground truth.

* :mod:`repro.corpus.model` -- the logical resume data model.
* :mod:`repro.corpus.vocab` -- deterministic fake-data pools.
* :mod:`repro.corpus.styles` -- authorship rendering styles.
* :mod:`repro.corpus.noise` -- HTML malformation injection.
* :mod:`repro.corpus.generator` -- corpus factory with ground truth.
* :mod:`repro.corpus.web` / :mod:`repro.corpus.crawler` -- a simulated
  web graph and the topic crawler that harvests resumes from it.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".model": ("ResumeData", "EducationEntry", "ExperienceEntry"),
    ".generator": ("ResumeCorpusGenerator", "GeneratedResume"),
    ".styles": ("RenderStyle", "STYLES"),
    ".noise": ("NoiseConfig", "inject_noise"),
    ".web": ("SimulatedWeb", "WebPage"),
    ".crawler": ("TopicCrawler", "CrawlReport"),
})
