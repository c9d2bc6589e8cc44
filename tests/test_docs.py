"""Guards for the documentation subsystem.

Two ways docs rot silently, two checks:

* the generated CLI reference (``docs/cli.md``) drifts from the actual
  ``tdm-repro`` argparse tree — regenerated here and compared byte-for-byte;
* relative links in ``docs/`` or the README point at files that moved or
  never existed.

The CI ``docs`` job runs exactly these tests (plus the quickstart smoke in
``test_quickstart.py``), so a flag rename or a moved page fails the build,
not a reader.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
SCRIPT = REPO_ROOT / "scripts" / "gen_cli_docs.py"

#: Markdown inline links: [text](target).  Images and reference-style links
#: are not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


class TestGeneratedCliReference:
    def test_cli_reference_exists_and_is_marked_generated(self):
        page = (DOCS / "cli.md").read_text(encoding="utf-8")
        assert "GENERATED FILE" in page, "docs/cli.md must carry the generated marker"
        assert "tdm-repro" in page

    def test_cli_reference_matches_argparse_tree(self):
        """Regenerate the page in a subprocess and fail on drift."""
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--check"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (
            "docs/cli.md drifted from src/repro/experiments/cli.py:\n"
            f"{proc.stdout}{proc.stderr}"
        )

    def test_every_cli_option_is_documented(self):
        """Belt and braces: each parser flag appears in the committed page."""
        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.experiments.cli import build_parser
        finally:
            sys.path.pop(0)
        page = (DOCS / "cli.md").read_text(encoding="utf-8")
        for action in build_parser()._actions:
            for flag in action.option_strings:
                assert f"`{flag}`" in page, f"{flag} missing from docs/cli.md"


class TestDocLinks:
    def _documents(self):
        docs = sorted(DOCS.glob("*.md"))
        assert docs, "docs/ must contain the documentation pages"
        return [REPO_ROOT / "README.md", *docs]

    def test_relative_links_resolve(self):
        broken = []
        for document in self._documents():
            text = document.read_text(encoding="utf-8")
            for target in _LINK.findall(text):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (document.parent / path).resolve()
                if not resolved.exists():
                    broken.append(f"{document.relative_to(REPO_ROOT)} -> {target}")
        assert not broken, "broken relative links:\n" + "\n".join(broken)

    def test_docs_reference_real_modules(self):
        """Backtick-quoted repo paths in the docs must exist on disk."""
        pattern = re.compile(r"`((?:src|scripts|tests|docs|perfbench|examples)/[\w./*-]+)`")
        missing = []
        for document in self._documents():
            for path in pattern.findall(document.read_text(encoding="utf-8")):
                if "*" in path:
                    if not list(REPO_ROOT.glob(path)):
                        missing.append(f"{document.name}: {path}")
                elif not (REPO_ROOT / path).exists():
                    missing.append(f"{document.name}: {path}")
        assert not missing, "docs reference nonexistent paths:\n" + "\n".join(missing)

    def test_required_pages_exist(self):
        for page in ("architecture.md", "determinism.md", "figures.md", "cli.md", "scenarios.md", "reliability.md"):
            assert (DOCS / page).exists(), f"docs/{page} is part of the docs contract"
