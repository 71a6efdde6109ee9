"""Docs health: every relative link in README.md and docs/ resolves.

Runs the same stdlib checker CI uses (tools/check_markdown_links.py),
plus structural checks on the docs index.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "tools", "check_markdown_links.py")

#: The documentation pages docs/index.md must link.
DOCS_PAGES = (
    "architecture.md",
    "protocols.md",
    "replaying-real-traces.md",
    "parallel-sweeps.md",
    "chaos.md",
    "performance.md",
    "observability.md",
    "api.md",
    "cluster.md",
)


def run_checker(*paths):
    return subprocess.run(
        [sys.executable, CHECKER, *paths],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=60,
    )


def test_readme_and_docs_links_resolve():
    proc = run_checker("README.md", "docs")
    assert proc.returncode == 0, (
        f"broken markdown links:\n{proc.stdout}{proc.stderr}"
    )


def test_checker_flags_broken_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see [missing](./no-such-file.md) and [ok](page.md)\n")
    proc = run_checker(str(page))
    assert proc.returncode == 1
    assert "no-such-file.md" in proc.stdout


def test_checker_skips_external_and_fenced(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "[web](https://example.com) [anchor](#section)\n"
        "```\n[not a link](./missing.md)\n```\n"
    )
    proc = run_checker(str(page))
    assert proc.returncode == 0


@pytest.mark.parametrize("page", DOCS_PAGES)
def test_index_links_every_docs_page(page):
    with open(os.path.join(REPO, "docs", "index.md")) as handle:
        index = handle.read()
    assert f"({page})" in index, f"docs/index.md does not link {page}"


def test_docs_pages_exist():
    for page in DOCS_PAGES:
        assert os.path.exists(os.path.join(REPO, "docs", page))
