"""A simulated web graph for the topic crawler.

The paper's corpus came from a crawler "programmed to crawl the Web
looking for HTML documents that looked like resumes" [20].  We simulate
the web it crawled: a deterministic directed graph of pages where some
fraction are resumes (from the corpus generator) and the rest are
plausible non-resume pages, with hyperlinks biased so that resume pages
cluster (personal pages link to other personal pages).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus import vocab
from repro.corpus.generator import GeneratedResume, ResumeCorpusGenerator

# Chance that a resume page's link goes to another resume page
# (personal-page clustering).
CLUSTER_BIAS = 0.7


@dataclass
class WebPage:
    """One page of the simulated web."""

    url: str
    html: str
    is_resume: bool
    resume: GeneratedResume | None = None
    links: list[str] = field(default_factory=list)


def _noise_page(rng: random.Random, url: str, links: list[str]) -> str:
    title, body = rng.choice(vocab.NOISE_PAGE_TOPICS)
    anchor_html = "".join(
        f'<li><a href="{target}">{target}</a></li>' for target in links
    )
    return (
        f"<html><head><title>{title}</title></head><body>"
        f"<h1>{title}</h1><p>{body}</p><ul>{anchor_html}</ul></body></html>"
    )


class SimulatedWeb:
    """A deterministic web graph of resume and non-resume pages."""

    def __init__(
        self,
        *,
        resume_count: int = 50,
        noise_count: int = 150,
        seed: int = 7,
        multipage_fraction: float = 0.0,
    ) -> None:
        if resume_count < 1:
            raise ValueError("need at least one resume page")
        if not 0.0 <= multipage_fraction <= 1.0:
            raise ValueError("multipage_fraction must be in [0, 1]")
        rng = random.Random(seed)
        generator = ResumeCorpusGenerator(seed=seed)
        self.pages: dict[str, WebPage] = {}

        resume_urls = [f"http://people.example.org/~user{i}/resume.html"
                       for i in range(resume_count)]
        noise_urls = [f"http://www.example.org/page{i}.html"
                      for i in range(noise_count)]
        all_urls = resume_urls + noise_urls

        for i, (url, resume) in enumerate(
            zip(resume_urls, generator.generate(resume_count))
        ):
            page = WebPage(url, resume.html, True, resume)
            self.pages[url] = page
            if rng.random() < multipage_fraction:
                self._split_skills_page(page, rng)
        for url in noise_urls:
            self.pages[url] = WebPage(url, "", False)

        # Wire links: every page links to a handful of others; resume
        # pages prefer other resume pages (personal-page clustering).
        for url, page in self.pages.items():
            # Tiny webs cannot supply many distinct targets.
            out_degree = min(rng.randint(2, 6), len(all_urls) - 1)
            targets: set[str] = set()
            attempts = 0
            while len(targets) < out_degree and attempts < 50 * out_degree:
                attempts += 1
                if page.is_resume and rng.random() < CLUSTER_BIAS:
                    target = rng.choice(resume_urls)
                else:
                    target = rng.choice(all_urls)
                if target != url:
                    targets.add(target)
            page.links = sorted(targets)

        # Render noise pages now that links exist; append links to
        # resume pages as a footer.  Section sub-pages (multi-page
        # resumes) already carry their content and are left alone.
        for url, page in self.pages.items():
            if page.is_resume:
                footer = "".join(
                    f'<a href="{t}">link</a> ' for t in page.links
                )
                page.html = page.html.replace(
                    "</body>", f"<p>{footer}</p></body>"
                )
            elif not page.html:
                page.html = _noise_page(rng, url, page.links)

        self.seed_urls = [resume_urls[0], noise_urls[0] if noise_urls else resume_urls[0]]

    def _split_skills_page(self, page: WebPage, rng: random.Random) -> None:
        """Turn a resume into a multi-page site: the skills section moves
        to a linked sub-page (Section 5's linkage-structure scenario).

        The main page keeps everything else and gains an anchor whose
        text names the section; the resume's ground truth is unchanged
        (it describes the logical document, however many pages carry it).
        """
        resume = page.resume
        assert resume is not None
        skills = list(resume.data.languages) + list(resume.data.systems)
        if not skills:
            return
        sub_url = page.url.rsplit("/", 1)[0] + "/skills.html"
        items = "".join(f"<li>{skill}</li>" for skill in skills)
        sub_html = (
            "<html><head><title>Technical Skills</title></head><body>"
            f"<h2>Technical Skills</h2><ul>{items}</ul></body></html>"
        )
        # Remove the skills section from the main page.  Every style
        # renders the section body between its heading and the next
        # section, so the cheapest faithful edit is re-rendering with
        # empty skills; styles are deterministic given the same rng, so
        # instead we excise the lines mentioning the skills and replace
        # the section heading with the link.
        main_html = page.html
        for skill in skills:
            main_html = main_html.replace(f"<li>{skill}</li>", "")
            main_html = main_html.replace(
                f'<font size="3">{skill}</font><br>', ""
            )
            main_html = main_html.replace(f"<tr><td>{skill}</td></tr>", "")
            main_html = main_html.replace(f"<dd>{skill}</dd>", "")
            main_html = main_html.replace(f"<p>{skill}</p>", "")
        if ", ".join(skills) in main_html:  # paragraph style packs them
            main_html = main_html.replace(f"<p>{', '.join(skills)}</p>", "")
        main_html = main_html.replace(
            "</body>",
            f'<p><a href="{sub_url}">Technical Skills</a></p></body>',
        )
        page.html = main_html
        self.pages[sub_url] = WebPage(sub_url, sub_html, False)

    def fetch(self, url: str) -> WebPage | None:
        """Retrieve a page (``None`` for a dead link)."""
        return self.pages.get(url)

    def __len__(self) -> int:
        return len(self.pages)

    def resume_urls(self) -> set[str]:
        """Ground truth: the URLs that really are resumes."""
        return {url for url, page in self.pages.items() if page.is_resume}
