"""Tests for the malformation injector."""

import random

from repro.corpus.noise import NoiseConfig, inject_noise
from repro.htmlparse.parser import parse_html

SAMPLE = """<html><body>
<h2>Education</h2>
<ul><li>UC Davis, B.S., 1996</li><li>MIT, M.S., 1998</li></ul>
<p><b>Skills</b>: C++</p>
<table border="1"><tr><td>x</td></tr></table>
</body></html>"""


class TestInjection:
    def test_zero_rate_is_identity(self):
        assert inject_noise(SAMPLE, random.Random(1), NoiseConfig(rate=0)) == SAMPLE

    def test_deterministic_given_rng(self):
        a = inject_noise(SAMPLE, random.Random(7), NoiseConfig(rate=1.0))
        b = inject_noise(SAMPLE, random.Random(7), NoiseConfig(rate=1.0))
        assert a == b

    def test_high_rate_changes_markup(self):
        noisy = inject_noise(SAMPLE, random.Random(7), NoiseConfig(rate=1.0))
        assert noisy != SAMPLE

    def test_close_tags_dropped_at_full_rate(self):
        noisy = inject_noise(SAMPLE, random.Random(7), NoiseConfig(rate=2.0))
        assert noisy.count("</li>") < SAMPLE.count("</li>")

    def test_text_content_survives(self):
        noisy = inject_noise(SAMPLE, random.Random(7), NoiseConfig(rate=1.0))
        for phrase in ("UC Davis", "MIT", "C++", "Education"):
            assert phrase in noisy

    def test_noisy_output_still_parses(self):
        for seed in range(10):
            noisy = inject_noise(SAMPLE, random.Random(seed), NoiseConfig(rate=1.0))
            tree = parse_html(noisy)
            assert "UC Davis" in tree.inner_text()

    def test_attributes_unquoted_at_full_rate(self):
        noisy = inject_noise(SAMPLE, random.Random(3), NoiseConfig(rate=2.0))
        assert 'border="1"' not in noisy
        assert "border=1" in noisy.lower()

    def test_double_bold_injected(self):
        noisy = inject_noise(SAMPLE, random.Random(1), NoiseConfig(rate=1.0))
        assert "<b><b>" in noisy

    def test_scaled_probability_capped(self):
        config = NoiseConfig(rate=100.0)
        assert config.scaled(0.5) == 1.0
        assert NoiseConfig(rate=0.5).scaled(0.5) == 0.25
