"""The prose docs name only things that exist.

Every dotted ``repro.*`` name in README.md, DESIGN.md, EXPERIMENTS.md
and docs/*.md must import (module prefix) and resolve (attributes
after it), every backticked repo-relative path under ``src/``,
``benchmarks/``, ``docs/`` or ``tests/`` must exist, and every
backticked configuration name (``SharingConfig.field``,
``SharingConfig(field=``, ``Participant(keyword=``, ``RelayConfig``)
must name a field or parameter that exists.  A rename or a deletion
that leaves a stale reference behind fails here.  So does a knob
missing from, or left behind in, the Configuration table of
docs/API.md.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.health.liveness import LivenessConfig
from repro.sharing.config import SharingConfig
from repro.sharing.participant import Participant

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
BACKTICKED = re.compile(r"`([^`\s]+)`")
BACKTICKED_ANY = re.compile(r"`([^`]+)`")
PATH = re.compile(r"(?:src|benchmarks|docs|tests)/[^:`]*")


#: Backticked class name → the object its mentions must match (None:
#: a name that no longer exists, so any mention is stale).
CONFIG_NAMES = {
    "SharingConfig": SharingConfig,
    "LivenessConfig": LivenessConfig,
    "Participant": Participant,
    "RelayConfig": None,
}
CONFIG_MENTION = re.compile(
    r"\b(" + "|".join(CONFIG_NAMES) + r")\b(?:\.(\w+)|\(([^)]*))?"
)
KEYWORD = re.compile(r"\b(\w+)=")


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


def _stale_config_names(doc: Path) -> set[str]:
    prose = FENCE.sub("", doc.read_text(encoding="utf-8"))
    stale = set()
    for span in BACKTICKED_ANY.findall(prose):
        for match in CONFIG_MENTION.finditer(span):
            name, attribute, call = match.groups()
            target = CONFIG_NAMES[name]
            if target is None:
                stale.add(name)
                continue
            known = set(inspect.signature(target).parameters)
            if attribute is not None and dataclasses.is_dataclass(target):
                if attribute not in known:
                    stale.add(f"{name}.{attribute}")
            for keyword in KEYWORD.findall(call or ""):
                if keyword not in known:
                    stale.add(f"{name}({keyword}=")
    return stale


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_config_names_resolve(doc):
    stale = sorted(_stale_config_names(doc))
    assert not stale, f"{doc.name} names missing config knobs: {stale}"


def _configuration_rows() -> list[str]:
    """First-column names of the "Session knobs" table in docs/API.md."""
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = text.split("### Session knobs", 1)[1].split("\n#", 1)[0]
    rows = [
        line.split("|")[1].strip() for line in section.splitlines()
        if line.startswith("| `")
    ]
    return [row.split("`")[1] for row in rows]


def test_configuration_table_is_the_config_surface():
    documented = _configuration_rows()
    assert len(documented) == len(set(documented)), documented
    surface = {
        f"{cls.__name__}.{field.name}"
        for cls in (SharingConfig, LivenessConfig)
        for field in dataclasses.fields(cls)
    } | {"liveness="}
    assert set(documented) == surface


def test_config_check_sees_stale_names(tmp_path):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "`SharingConfig.keepalive_interval`, `SharingConfig(lossy_codec=x)`,"
        " `Participant(nack_backoff=2.0)`, `RelayConfig(liveness=live)`,"
        " `SharingConfig.retransmissions`, `Participant(clock=c, rng=r)`\n"
        "```\nSharingConfig(gone=1)\n```\n",
        encoding="utf-8",
    )
    assert _stale_config_names(doc) == {
        "SharingConfig.keepalive_interval",
        "SharingConfig(lossy_codec=",
        "Participant(nack_backoff=",
        "RelayConfig",
    }


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
