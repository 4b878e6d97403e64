"""The prose docs name only things that exist.

Every dotted ``repro.*`` name in README.md, DESIGN.md, EXPERIMENTS.md
and docs/*.md must import (module prefix) and resolve (attributes
after it), and every backticked repo-relative path under ``src/``,
``benchmarks/``, ``docs/`` or ``tests/`` must exist.  A rename or a
deletion that leaves a stale reference behind fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
BACKTICKED = re.compile(r"`([^`\s]+)`")
PATH = re.compile(r"(?:src|benchmarks|docs|tests)/[^:`]*")


def _resolve(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(obj, attribute):
                return False
            obj = getattr(obj, attribute)
        return True
    return False


def _names(doc: Path) -> set[str]:
    return set(DOTTED.findall(doc.read_text(encoding="utf-8")))


def _paths(doc: Path) -> set[str]:
    prose = FENCE.sub("", doc.read_text(encoding="utf-8"))
    found = set()
    for span in BACKTICKED.findall(prose):
        match = PATH.fullmatch(span.split("::")[0].split(":")[0])
        if match:
            found.add(match.group(0))
    return found


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_dotted_names_resolve(doc):
    stale = sorted(name for name in _names(doc) if not _resolve(name))
    assert not stale, f"{doc.name} names missing objects: {stale}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_backticked_paths_exist(doc):
    missing = sorted(
        path for path in _paths(doc)
        if not any(ROOT.glob(path)) and not (ROOT / path).exists()
    )
    assert not missing, f"{doc.name} names missing paths: {missing}"


def test_the_checks_see_the_docs():
    assert len(DOCS) > 5
    assert sum(len(_names(doc)) for doc in DOCS) > 50
    assert sum(len(_paths(doc)) for doc in DOCS) > 20
