"""Bundled scenario files."""

from importlib import resources
from pathlib import Path


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled scenario, e.g. ``spectrum_paper.json``."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    ref = resources.files(__package__) / name
    with resources.as_file(ref) as path:
        return Path(path)

