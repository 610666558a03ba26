"""The bad/good fixture corpus keeps the linter honest both ways.

Every ``bad_*.py`` fixture names the codes it must produce in a
``# expect: ALPxxx [ALPyyy ...]`` header; every ``good_*.py`` must lint
clean.  This file is the corpus check: CI runs it in the lint job.
"""

import os
import re

import pytest

from repro.analysis import CATALOGUE, lint_paths

CORPUS = os.path.join(os.path.dirname(__file__), "..", "fixtures", "analysis")

_EXPECT_RE = re.compile(r"^#\s*expect:\s*(.+)$", re.MULTILINE)


def expected_codes(source: str) -> set[str]:
    """Codes declared in ``# expect:`` header comments of a fixture."""
    codes: set[str] = set()
    for match in _EXPECT_RE.finditer(source):
        codes.update(
            part.strip().upper()
            for part in re.split(r"[,\s]+", match.group(1))
            if part.strip()
        )
    return codes


def corpus_files(prefix: str) -> list[str]:
    return sorted(
        name
        for name in os.listdir(CORPUS)
        if name.startswith(prefix) and name.endswith(".py")
    )


def missing_codes(path: str) -> set[str]:
    """Codes a bad fixture's header expects that the linter does not report."""
    with open(path, encoding="utf-8") as fh:
        expected = expected_codes(fh.read())
    assert expected, f"{path} lacks an '# expect:' header"
    return expected - {f.code for f in lint_paths([path])}


class TestCorpus:
    def test_corpus_is_paired_per_check(self):
        # Every static check (ALP1xx) has at least one positive and one
        # negative fixture; an empty corpus would be a silent skip.
        bad, good = corpus_files("bad_"), corpus_files("good_")
        assert len(bad) >= 13 and len(good) >= 13
        static_codes = {c for c in CATALOGUE if c.startswith("ALP1")}
        covered = set()
        for name in bad:
            with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
                covered |= expected_codes(fh.read())
        assert covered == static_codes

    @pytest.mark.parametrize("name", corpus_files("bad_"))
    def test_bad_fixture_reports_expected_codes(self, name):
        assert missing_codes(os.path.join(CORPUS, name)) == set()

    @pytest.mark.parametrize("name", corpus_files("good_"))
    def test_good_fixture_is_clean(self, name):
        findings = lint_paths([os.path.join(CORPUS, name)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_check_corpus_fails_on_wrong_expectation(self, tmp_path):
        # The gate itself: a header naming a code the fixture does not
        # produce is reported, not passed.
        fake = tmp_path / "bad_fake.py"
        fake.write_text("# expect: ALP113\nx = 1\n", encoding="utf-8")
        assert missing_codes(str(fake)) == {"ALP113"}
