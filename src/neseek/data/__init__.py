"""Bundled scenario files."""

from importlib import resources


def bundled_path(name: str):
    """A bundled scenario, e.g. ``spectrum_paper.json``, as a resource that
    ``load_scenario`` reads: a ``pathlib.Path`` when the package is installed
    as files, a path inside the archive when it is imported from a zip."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return resources.files(__package__) / name
