"""Tests for linked multi-page document conversion."""

import pytest

from repro.convert.linked import MAX_LINKS, LinkedDocumentConverter, extract_topic_links
from repro.concepts.matcher import SynonymMatcher
from repro.corpus.web import SimulatedWeb
from repro.dom.path import find_all, find_first
from repro.evaluation.accuracy import count_logical_errors

MAIN_HTML = """
<html><head><title>Pat Smith - Resume</title></head><body>
<h1>Resume of Pat Smith</h1>
<h2>Education</h2>
<ul><li>June 1996, Stanford University, B.S. (Computer Science)</li></ul>
<h2>Experience</h2>
<p>Software Engineer, Verity Inc., Sunnyvale, 1998 - present</p>
<p><a href="/skills.html">Technical Skills</a></p>
<p><a href="/cats.html">My cat photos</a></p>
</body></html>
"""

SKILLS_HTML = """
<html><head><title>Technical Skills</title></head><body>
<h2>Technical Skills</h2>
<ul><li>C++</li><li>Java</li><li>Unix</li></ul>
</body></html>
"""


@pytest.fixture()
def pages():
    return {"/skills.html": SKILLS_HTML}


@pytest.fixture()
def linked(converter, pages):
    return LinkedDocumentConverter(converter, fetch=pages.get)


class TestLinkExtraction:
    def test_topic_links_found(self, kb):
        matcher = SynonymMatcher(kb)
        links = extract_topic_links(MAIN_HTML, matcher, kb)
        assert len(links) == 1
        assert links[0].href == "/skills.html"
        assert links[0].concept_tag == "SKILLS"

    def test_non_topic_anchors_ignored(self, kb):
        matcher = SynonymMatcher(kb)
        links = extract_topic_links(
            '<a href="/x.html">random page</a>', matcher, kb
        )
        assert links == []

    def test_content_concept_anchors_ignored(self, kb):
        # "Stanford University" matches INSTITUTION (content role):
        # a reference, not a section page.
        matcher = SynonymMatcher(kb)
        links = extract_topic_links(
            '<a href="/y.html">Stanford University</a>', matcher, kb
        )
        assert links == []

    def test_incidental_matches_ignored(self, kb):
        # Anchor where the concept word is a small part of long text.
        matcher = SynonymMatcher(kb)
        links = extract_topic_links(
            '<a href="/z.html">an essay about how my education '
            "changed my life and other stories</a>",
            matcher,
            kb,
        )
        assert links == []

    def test_duplicate_hrefs_deduplicated(self, kb):
        matcher = SynonymMatcher(kb)
        html = (
            '<a href="/s.html">Skills</a><a href="/s.html">Skills</a>'
        )
        assert len(extract_topic_links(html, matcher, kb)) == 1


class TestLinkedConversion:
    def test_skills_grafted(self, linked):
        outcome = linked.convert(MAIN_HTML)
        assert [l.href for l in outcome.followed] == ["/skills.html"]
        skills = find_all(outcome.root, "RESUME/SKILLS")
        assert skills
        grafted_values = {
            el.get_val()
            for section in skills
            for el in section.element_children()
        }
        assert any("C++" in v for v in grafted_values)

    def test_dead_link_tolerated(self, converter):
        linked = LinkedDocumentConverter(converter, fetch=lambda url: None)
        outcome = linked.convert(MAIN_HTML)
        assert outcome.followed == []
        assert outcome.root.tag == "RESUME"

    def test_max_links_respected(self, converter):
        fetched = []
        linked = LinkedDocumentConverter(converter, fetch=fetched.append)
        anchors = "".join(
            f'<li><a href="/education{i}.html">Education</a></li>'
            for i in range(MAX_LINKS + 2)
        )
        linked.convert(f"<html><body><h1>Resume</h1><ul>{anchors}</ul></body></html>")
        assert len(fetched) == MAX_LINKS

    def test_other_sections_unaffected(self, linked, converter):
        plain = converter.convert(MAIN_HTML)
        merged = linked.convert(MAIN_HTML)
        for section in ("EDUCATION", "EXPERIENCE"):
            a = find_first(plain.root, f"RESUME/{section}")
            b = find_first(merged.root, f"RESUME/{section}")
            assert (a is None) == (b is None)
            if a is not None:
                assert len(a.element_children()) == len(b.element_children())


class TestOnSimulatedWeb:
    def test_multipage_web_builds(self):
        web = SimulatedWeb(
            resume_count=6, noise_count=6, seed=9, multipage_fraction=1.0
        )
        subs = [u for u in web.pages if u.endswith("skills.html")]
        assert len(subs) == 6
        for sub in subs:
            assert "Technical Skills" in web.fetch(sub).html

    def test_tiny_web_terminates(self):
        # Regression: link wiring must not spin on tiny webs.
        web = SimulatedWeb(resume_count=2, noise_count=1, seed=9)
        assert len(web) == 3

    def test_linked_conversion_beats_plain_on_multipage(self, converter):
        web = SimulatedWeb(
            resume_count=8, noise_count=6, seed=9, multipage_fraction=1.0
        )
        linked = LinkedDocumentConverter(
            converter,
            fetch=lambda u: (web.fetch(u).html if web.fetch(u) else None),
        )
        plain_errors = linked_errors = 0
        for url in sorted(web.resume_urls()):
            page = web.fetch(url)
            plain_errors += count_logical_errors(
                converter.convert(page.html).root, page.resume.ground_truth
            ).errors
            linked_errors += count_logical_errors(
                linked.convert(page.html).root, page.resume.ground_truth
            ).errors
        assert linked_errors < plain_errors

    def test_multipage_fraction_validation(self):
        with pytest.raises(ValueError):
            SimulatedWeb(resume_count=2, multipage_fraction=1.5)
