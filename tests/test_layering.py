"""The file layer stays below the programs.

``linalg``, ``devices``, ``io`` and ``presets`` hold the matrix calculus, the
device and game types, the file format and the bundled devices.  Reading or
writing a device file must not load the solver, so none of them may import
a program module.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "pidlab")
BASE = ("linalg", "devices", "io", "presets")
PROGRAMS = {"sdp", "compatibility", "games", "simulation", "sem", "cli"}


def _pidlab_imports(path: str) -> set[str]:
    """The pidlab modules a source file imports, by their name inside the package."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pidlab" and len(parts) > 1:
                    names.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "pidlab":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inside:
                names.add(inside[0])
            else:  # from . import games
                names.update(alias.name for alias in node.names)
    return names


def test_base_modules_import_no_program():
    found = {m: sorted(_pidlab_imports(os.path.join(SRC, f"{m}.py")) & PROGRAMS) for m in BASE}
    assert _pidlab_imports(os.path.join(SRC, "devices.py")) == {"linalg"}  # the parser sees imports
    assert not any(found.values()), f"base modules import programs: {found}"
