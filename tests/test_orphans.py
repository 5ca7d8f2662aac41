"""No function or class that nothing uses: every module-level function and
class in the package, public or `_`-prefixed, is used somewhere in `src/`
besides the `__init__.py` re-exports. A private helper or a type left
behind when two code paths are folded into one fails here too."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fewcache").glob("*.py"))
# The unblocked reference that retrieve's tests compare against, and the
# in-memory load that the tests and bench/workloads.py compare the layout
# path against.
ALLOWED = {"cache_branch.attention", "dataset.load_manifest"}


def orphans(modules: dict[str, str]) -> set[str]:
    """`module.name` for each module-level function or class of the sources
    in `modules` (name -> text) whose name no other expression of them
    loads, as a bare name or an attribute; `__init__` is skipped."""
    defined, used = set(), set()
    for name, text in modules.items():
        if name == "__init__":
            continue
        tree = ast.parse(text, filename=f"{name}.py")
        defined.update(
            (name, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{module}.{fn}" for module, fn in defined if fn not in used}


def test_every_public_function_is_called():
    found = orphans({path.stem: path.read_text() for path in SOURCES})
    assert found == ALLOWED, f"unused functions or classes: {sorted(found - ALLOWED)}"


def test_planted_orphan_detected():
    modules = {
        "__init__": "from .a import Orphan, Used, orphan, used\n",
        "a": "def used():\n    pass\n\ndef orphan():\n    pass\n\ndef _private():\n    pass\n"
             "\ndef _helper():\n    pass\n\nused(_helper())\n"
             "\nclass _Base:\n    pass\n\nclass Used(_Base):\n    pass\n"
             "\nclass Orphan:\n    pass\n",
        "b": "from . import a\nfrom .a import used\n\ndef run():\n    a.used()\n    a.Used()\n"
             "\nrun()\n",
    }
    assert orphans(modules) == {"a.orphan", "a._private", "a.Orphan"}
