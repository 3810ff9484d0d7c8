"""Every exported name resolves, so deleting a helper leaves no stale entry,
and every public top-level function and class in ``src/fricsim`` has a
caller outside the tests."""

import ast
import importlib
import pathlib
import pkgutil

import fricsim

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fricsim"
DEFINITION = (ast.FunctionDef, ast.ClassDef)

# Public names only tests reach, each kept as the reference of a check.
TEST_REFERENCES = {
    "elasticity.elastic_force":
        "the near-inversion damping-dq check compares blocks to a JVP at "
        "1e-10 of the largest entry; a damping term taken as the difference "
        "of two element passes would cancel against the elastic term there",
    "elasticity.damping_force":
        "the damping half of that check, for the same reason",
    "contact.contact_energy":
        "the contact-force finite-difference check differentiates it",
    "export.read_trajectory_csv":
        "the CSV round-trip tests read the written trajectory back with it",
    "experiments.run_ball_drop":
        "the fixture of acceptance criterion 8",
    "experiments.run_plate_squeeze":
        "the fixture of acceptance criterion 4",
}


def test_package_exports_resolve():
    missing = [n for n in fricsim.__all__ if not hasattr(fricsim, n)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(fricsim.__path__):
        module = importlib.import_module(f"fricsim.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []


def _names(node):
    """Every name and attribute read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _callers():
    """Public ``module.name`` of ``src/fricsim`` -> the places outside its
    own definition and the package re-exports (``__init__``) that refer to
    it by name or attribute: ``src/fricsim``, ``tools/*.py`` and
    ``perfbench/*.py``, with the dotted paths of ``spans.TARGETS``."""
    refs = {}  # name -> places ("file" or "file:definition")

    def add(names, place):
        for name in names:
            refs.setdefault(name, set()).add(place)

    modules = {path.stem: ast.parse(path.read_text())
               for path in SRC.glob("*.py") if path.stem != "__init__"}
    for module, tree in modules.items():
        for node in tree.body:
            own = isinstance(node, DEFINITION)
            add(_names(node), f"{module}:{node.name}" if own else module)
    for path in [*ROOT.glob("tools/*.py"), *ROOT.glob("perfbench/*.py")]:
        tree = ast.parse(path.read_text())
        add(_names(tree), path.name)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "TARGETS"
                            for t in node.targets)):
                add((part for sub in ast.walk(node.value)
                     if isinstance(sub, ast.Constant)
                     and isinstance(sub.value, str)
                     for part in sub.value.split(".")), path.name)
    return {f"{module}.{node.name}":
            refs.get(node.name, set()) - {f"{module}:{node.name}"}
            for module, tree in modules.items() for node in tree.body
            if isinstance(node, DEFINITION) and not node.name.startswith("_")}


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = sorted(name for name, places in _callers().items()
                      if not places)
    dead = [n for n in uncalled if n not in TEST_REFERENCES]
    assert dead == [], f"no caller in src, tools or perfbench: {dead}"
    # an exception whose name gained a caller, or is gone, is stale
    assert sorted(TEST_REFERENCES) == uncalled
