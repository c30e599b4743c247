"""Access to the bundled assurance-case corpus."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled corpus file."""
    path = Path(str(resources.files(__package__) / "corpus" / name))
    if not path.is_file():
        raise FileNotFoundError(f"no corpus file named {name!r}")
    return path


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")
