"""Layering: no module of horolab reaches into another module's private names.

A name with a leading underscore is private to its module.  A sibling that
imports one, or any module that reads one off an imported module object (a
sibling, numpy or argparse alike), depends on a detail the owner may change
without notice, so the rule is checked on the source.

A public name that nothing in src/ or bench/ calls is either a second
implementation of something src/ already computes or code no output reads;
the tests' own oracles live in tests/conftest.py instead.

Each public name has one import path, from the module that defines it: the
package root binds the layer modules and __version__, and re-exports nothing.

Every exception class is named by some `except` clause, since a refusal that no
handler tells apart is a ValueError with its message; and every annotated field
of a public class is read somewhere, since a field nothing reads is an output
no command prints.

One function, fitting.parse_literal, turns a constructor's ValueError into a
LiteralParseError: a hand-written wrap elsewhere is a second literal reader.
For the same reason no plain ValueError carries a message that starts with a
production, `<name>:`; that format is LiteralParseError's.
"""

import ast
import re
import builtins
from pathlib import Path

import horolab

PACKAGE = Path(horolab.__file__).parent


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """`module:line name` for every sibling private name that path imports
    and every private attribute it reads off an imported module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, modules = [], set()  # modules: local names bound to imported modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "horolab":
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                if node.module in (None, "horolab"):  # from . import measures
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):  # import a.b binds a
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_a_sibling_private_name():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_reads(path)]
    assert found == []


def test_the_rule_sees_both_kinds_of_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import measures as _measures\n"
        "from .automorphic import _live_end, hecke_range\n"
        "r = _measures._support_radius(m) + _measures.support_radius(m)\n"
        "s = _measures.__name__\n"
        "import argparse, os.path\n"
        "a = isinstance(x, argparse._StoreTrueAction) or argparse.ArgumentTypeError\n"
        "b = os._exit, os.path, x._private\n"
    )
    assert sorted(private_reads(src)) == [
        "mod.py:2 _live_end",
        "mod.py:3 _measures._support_radius",
        "mod.py:6 argparse._StoreTrueAction",
        "mod.py:7 os._exit",
    ]


# Public names with no caller in src/ or bench/, kept for what reads them
KEPT_WITHOUT_CALLER = {
    "horocycle_fourier_coeff": "criterion 5b reads one coefficient of the spectral-gap FFT",
    "l1_partial_sum": "ROADMAP item 3's hypothesis test checks its inequality against it",
    "b_of_s": "ROADMAP item 7 picks the base b of its cantor:b:0..l-1 family with it",
}


def public_definitions(path: Path) -> list[tuple[str, ast.AST]]:
    """(name, node) of every public top-level function and class of path and
    of every public method or property of its public classes (Class.name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def names_read(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every ast.Name and ast.Attribute in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def without_caller(defining: list[Path], reading: list[Path]) -> list[str]:
    """`module.name` of every public definition in `defining` that no file of
    `reading` names outside the definition's own body."""
    reads = [(path, name, line) for path in reading for name, line in names_read(path)]
    found = []
    for path in defining:
        for qualname, node in public_definitions(path):
            name, own = qualname.rsplit(".", 1)[-1], range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, n, line in reads):
                found.append(f"{path.stem}.{qualname}")
    return found


def readers() -> list[Path]:
    """The files whose reads count: src/horolab and bench/*.py."""
    bench = PACKAGE.parents[1] / "bench"
    assert bench.is_dir()
    return [*PACKAGE.glob("*.py"), *sorted(bench.glob("*.py"))]


def test_every_public_function_has_a_caller():
    # a public name that only tests call is a second implementation or dead
    # code; imports are not calls and do not count
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    found = without_caller(modules, readers())
    assert [f for f in found if f.split(".", 1)[1] not in KEPT_WITHOUT_CALLER] == []
    assert sorted(f.split(".", 1)[1] for f in found) == sorted(KEPT_WITHOUT_CALLER)  # none stale


def test_the_caller_rule_skips_a_names_own_body(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def f(n):\n    return f(n - 1) if n else 0\n\n\n"
        "class C:\n    def used(self):\n        return C()\n\n    @property\n    def unused(self):\n        return self.used()\n"
    )
    user.write_text("x = f(3)\n")
    assert without_caller([lib], [lib, user]) == ["lib.C", "lib.C.unused"]
    assert without_caller([lib], [lib]) == ["lib.f", "lib.C", "lib.C.unused"]


LAYERS = {
    "automorphic", "diophantine", "experiments", "fitting", "measures", "modular", "oscillatory", "testfunctions",
}


def root_extras(path: Path) -> list[str]:
    """`line: statement` for every top-level statement of a package root other
    than its docstring, `from . import` of layer modules and `__version__ = ...`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for i, node in enumerate(tree.body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        layers = (
            isinstance(node, ast.ImportFrom)
            and (node.level, node.module) == (1, None)
            and all(alias.name in LAYERS and alias.asname is None for alias in node.names)
        )
        version = isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__version__"]
        if not (docstring or layers or version):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_package_root_binds_only_the_layer_modules(tmp_path):
    root = PACKAGE / "__init__.py"
    assert root_extras(root) == []
    tree = ast.parse(root.read_text())
    bound = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert bound == LAYERS  # `import horolab as hl; hl.measures...` reads every layer
    facade = tmp_path / "__init__.py"
    facade.write_text(
        '"""doc"""\nfrom . import measures\nfrom .measures import sample\nfrom . import cli\n__version__ = "1"\n'
    )
    assert root_extras(facade) == ["3: from .measures import sample", "4: from . import cli"]


# Exception classes nothing in src/ or bench/ catches, kept for what reads them
KEPT_WITHOUT_HANDLER = {
    "LiteralParseError": "owns the `literal, production <p>:` format of every malformed literal",
}


def is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def exception_classes(path: Path) -> list[str]:
    """Names of the top-level classes of path derived from a builtin
    exception or from an exception class defined earlier in path."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and (base.id in found or is_builtin_exception(base.id))
            for base in node.bases
        ):
            found.append(node.name)
    return found


def handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Every name in the type of one `except` clause; none for a bare `except:`."""
    if handler.type is None:
        return set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(handler.type)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def names_caught(path: Path) -> set[str]:
    """Every name in the type of an `except` clause of path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return set().union(*(handler_names(h) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)))


def without_handler(defining: list[Path], reading: list[Path]) -> list[str]:
    """`module.Class` of every exception class of `defining` that no `except`
    clause of `reading` names."""
    caught = set().union(*(names_caught(path) for path in reading))
    return [f"{path.stem}.{name}" for path in defining for name in exception_classes(path) if name not in caught]


def test_every_exception_class_is_caught():
    found = without_handler(sorted(PACKAGE.glob("*.py")), readers())
    assert [f for f in found if f.split(".", 1)[1] not in KEPT_WITHOUT_HANDLER] == []
    assert sorted(f.split(".", 1)[1] for f in found) == sorted(KEPT_WITHOUT_HANDLER)  # none stale


def test_the_handler_rule_sees_every_form_of_except(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "class A(ValueError):\n    pass\n\n\nclass B(A):\n    pass\n\n\n"
        "class C(RuntimeError):\n    pass\n\n\nclass D(KeyError):\n    pass\n\n\n"
        "class Plain:\n    pass\n\n\nclass NotAnError(Plain):\n    pass\n"
    )
    user.write_text(
        "import lib\n\ntry:\n    pass\nexcept (lib.A, KeyError):\n    pass\n"
        "except B as exc:\n    raise C from exc\nexcept:\n    pass\n"
    )
    assert without_handler([lib], [user]) == ["lib.C", "lib.D"]
    assert without_handler([lib], [lib]) == ["lib.A", "lib.B", "lib.C", "lib.D"]


def annotated_fields(path: Path) -> list[tuple[str, str]]:
    """(Class, field) of every annotated name in the body of a public
    top-level class of path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.name, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def attributes_loaded(path: Path) -> set[str]:
    """Every attribute name path reads (`x.name` in a Load context)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def fields_without_reader(defining: list[Path], reading: list[Path]) -> list[str]:
    """`module.Class.field` of every annotated field of `defining` that no
    file of `reading` reads as an attribute."""
    loaded = set().union(*(attributes_loaded(path) for path in reading))
    return [
        f"{path.stem}.{cls}.{name}"
        for path in defining
        for cls, name in annotated_fields(path)
        if name not in loaded
    ]


def test_every_field_of_a_public_class_is_read():
    # a field only a constructor keyword sets, or only an assignment stores, is unread
    assert fields_without_reader(sorted(PACKAGE.glob("*.py")), readers()) == []


def test_the_field_rule_counts_only_attribute_loads(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Result:\n    read: int\n    stored: int\n    keyword: int = 0\n    plain = 1\n\n\n"
        "class _Private:\n    hidden: int\n\n\n"
        "def make(r):\n    r.stored = r.read\n    return Result(keyword=1, read=r.plain)\n"
    )
    assert fields_without_reader([lib], [lib]) == ["lib.Result.stored", "lib.Result.keyword"]


def literal_rewraps(path: Path) -> list[str]:
    """`module.function` for every `raise LiteralParseError(<production>, str(exc))`
    in an `except ValueError as exc` handler of path, function being the
    innermost one that holds it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}  # id(node) -> name of the innermost function holding it; ast.walk visits outer ones first
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update({id(node): func.name for node in ast.walk(func)})
    found = []
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name and "ValueError" in handler_names(handler)):
            continue
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and ast.unparse(node.exc.func).split(".")[-1] == "LiteralParseError"
                and f"str({handler.name})" in map(ast.unparse, node.exc.args)
            ):
                found.append(f"{path.stem}.{owner.get(id(node), '<module>')}")
    return found


def test_one_function_rewraps_a_constructors_refusal():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in literal_rewraps(path)]
    assert found == ["fitting.parse_literal"]


def test_the_rewrap_rule_sees_a_hand_written_wrap(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import fitting\nfrom .fitting import LiteralParseError\n\n\n"
        "def parse_a(text):\n    try:\n        return A(float(text))\n"
        "    except ValueError as exc:\n        raise LiteralParseError('<a>', str(exc)) from None\n\n\n"
        "def parse_b(text):\n    def build():\n        try:\n            return B(text)\n"
        "        except (TypeError, ValueError) as err:\n            raise fitting.LiteralParseError('<b>', str(err))\n"
        "    return build()\n\n\n"
        "def parse_c(text):\n    try:\n        return C(text)\n"
        "    except ValueError:\n        raise LiteralParseError('<c>', f'bad c {text!r}') from None\n"
        "    except KeyError as exc:\n        raise LiteralParseError('<c>', str(exc))\n"
    )
    assert literal_rewraps(src) == ["mod.parse_a", "mod.build"]


PRODUCTION_HEAD = re.compile(r"<[\w:-]+>:")


def production_messages(path: Path) -> list[str]:
    """`module:line` of every `raise ValueError(...)` in path whose message, a
    string or an f-string, starts with a production `<name>:`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and ast.unparse(node.exc.func).split(".")[-1] == "ValueError"
            and node.exc.args
        ):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr) and message.values:
            message = message.values[0]
        if (
            isinstance(message, ast.Constant)
            and isinstance(message.value, str)
            and PRODUCTION_HEAD.match(message.value)
        ):
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_plain_value_error_names_a_production():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in production_messages(path)] == []


def test_the_production_rule_sees_strings_and_f_strings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import builtins\nfrom .fitting import LiteralParseError\n\n\n"
        "def check(x, text):\n"
        "    if x < 0:\n        raise ValueError('<xi-range>: step must be positive')\n"
        "    if x > 1:\n        raise ValueError(f\"<test:bump>: {text!r} is not finite\")\n"
        "    if x == 0:\n        raise builtins.ValueError(\"<dim>: --xmax is too small\")\n"
        "    if x == 2:\n        raise LiteralParseError('<xi-grid>', 'count must be whole')\n"
        "    if x == 3:\n        raise ValueError(f'{text}: <dim>: not at the start')\n"
        "    if x == 4:\n        raise ValueError('<dim> is a name, not a production head')\n"
        "    raise ValueError()\n"
    )
    assert production_messages(src) == ["mod:7", "mod:9", "mod:11"]
