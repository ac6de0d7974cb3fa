"""Every name the package defines is reached by code that runs it.

A helper that a refactor leaves behind (defined, never called) fails here.
A top-level private name counts as used when the package's source
mentions it anywhere but its own definition: as a name, an attribute or
an imported name.  A public function, class or method must be mentioned
outside its own definition by the package, the scripts or the benchmark
harness; a public name that only tests call is code that no command,
script or benchmark runs, so its tests check code that mining never runs.  An attribute that
a class sets in ``__init__`` must be read by the package: one that is
only ever appended to or assigned is bookkeeping nothing consumes.
Exception classes are exempt; their fields are for the callers that
handle the fault.  Likewise a field of a dataclass or NamedTuple must be
read as an attribute by the package, the scripts or the benchmark
harness: a field that only its constructor call fills is a second record
of a fact nothing reads.
"""

import ast
import builtins
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctms"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _uses(tree: ast.Module) -> list[str]:
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used += [alias.name for alias in node.names]
    return used


def unused_private_names(files) -> list[str]:
    """``file:name`` for each top-level private name no file uses."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = {name for tree in trees.values() for name in _uses(tree)}
    return [
        f"{file}:{name}"
        for file, tree in sorted(trees.items())
        for name in _top_level_names(tree)
        if _is_private(name) and name not in used
    ]


def test_every_private_name_in_the_package_is_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert unused_private_names(files) == []


def test_an_unused_private_helper_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "_LIMIT = 3\n"
        "def _used(x):\n    return x < _LIMIT\n"
        "def _left_behind():\n    return 0\n"
        "class _Record:\n    pass\n"
        "def public(x):\n    return _used(x) and _Record\n",
        encoding="utf-8",
    )
    assert unused_private_names([module]) == ["mod.py:_left_behind"]


def _public_definitions(tree: ast.Module):
    """(qualified name, def node) of each public top-level function or class,
    and of each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*defs, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreached_public_names(defining, reaching) -> list[str]:
    """``file:name`` for each public definition in `defining` that no file in
    `reaching` mentions outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in {*defining, *reaching}}
    mentions = Counter(name for path in reaching for name in _uses(trees[path]))
    return [
        f"{path.name}:{qualname}"
        for path in sorted(defining)
        for qualname, node in _public_definitions(trees[path])
        if mentions[node.name] <= _uses(node).count(node.name)
    ]


def _reaching(package):
    """The package and the code that runs it: the scripts and the benchmark
    harness.  No test counts."""
    reaching = [
        *package,
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    assert package and all(path.is_file() for path in reaching)
    return reaching


def test_every_public_name_in_the_package_is_reached():
    package = sorted(SRC.glob("*.py"))
    assert unreached_public_names(package, _reaching(package)) == []


def test_a_public_name_only_tests_call_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def run(x):\n    return Box(x).size()\n"
        "def countdown(n):\n    return countdown(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self, x):\n        self.x = x\n"
        "    def size(self):\n        return 1\n"
        "    def spare(self):\n        return self.size()\n",
        encoding="utf-8",
    )
    script = tmp_path / "script.py"
    script.write_text("from mod import run\nprint(run(3))\n", encoding="utf-8")
    assert unreached_public_names([module], [module, script]) == [
        "mod.py:countdown",
        "mod.py:Box.spare",
    ]


# Calling one of these on an attribute changes it without reading it.
_MUTATORS = frozenset({"append", "extend", "insert", "add", "update", "clear"})


def _is_exception(node: ast.ClassDef, exceptions: set[str]) -> bool:
    for base in node.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        builtin = getattr(builtins, name, None)
        if name in exceptions or (isinstance(builtin, type) and issubclass(builtin, BaseException)):
            return True
    return False


def _init_attributes(tree: ast.Module, exceptions: set[str]):
    """(class name, attribute) for each ``self.<attribute>`` that the
    ``__init__`` of a top-level class assigns; exception classes are left out."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_exception(node, exceptions):
            exceptions.add(node.name)
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for target in ast.walk(item):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        yield node.name, target.attr


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Names of the attributes the module loads, except where the load only
    mutates the value: as the receiver of a mutator call or of a
    subscript assignment."""
    writes_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                writes_only.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            writes_only.add(id(node.value))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in writes_only
    }


def write_only_attributes(files) -> list[str]:
    """``Class.attribute`` for each attribute a class's ``__init__`` sets
    that no file reads: appending to it or assigning it is not a read."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(files)]
    exceptions: set[str] = set()
    attributes = [pair for tree in trees for pair in _init_attributes(tree, exceptions)]
    read = set().union(*map(_attribute_reads, trees))
    return sorted({f"{cls}.{attr}" for cls, attr in attributes if attr not in read})


def test_every_attribute_a_class_sets_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert write_only_attributes(files) == []


def test_a_write_only_attribute_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Fault(ValueError):\n"
        "    def __init__(self, where):\n        self.where = where\n"
        "class SubFault(Fault):\n"
        "    def __init__(self):\n        self.detail = 1\n"
        "class Index:\n"
        "    def __init__(self, text):\n"
        "        self.text = text\n"
        "        self.starts: list[int] = []\n"
        "        self.ends = []\n"
        "        self.depth, self.owners = 0, {}\n"
        "        self.kinds = []\n"
        "    def fill(self):\n"
        "        self.starts.append(0)\n"
        "        self.ends.extend([1])\n"
        "        self.owners[0] = 'root'\n"
        "        self.depth += 1\n"
        "        kinds = self.kinds\n"
        "        return len(self.text)\n",
        encoding="utf-8",
    )
    assert write_only_attributes([module]) == [
        "Index.depth",
        "Index.ends",
        "Index.owners",
        "Index.starts",
    ]


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    names = [getattr(n, "id", getattr(n, "attr", "")) for n in (*decorators, *node.bases)]
    return "dataclass" in names or "NamedTuple" in names


def _record_fields(tree: ast.Module):
    """(class name, field) for each field of a top-level dataclass or NamedTuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def unread_fields(defining, reaching, exempt=()) -> list[str]:
    """``Class.field`` for each field of a dataclass or NamedTuple in
    `defining` that no file in `reaching` reads as an attribute; classes
    named in `exempt` are left out."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in {*defining, *reaching}}
    read = set().union(*(_attribute_reads(trees[path]) for path in reaching))
    return sorted(
        f"{cls}.{name}"
        for path in defining
        for cls, name in _record_fields(trees[path])
        if cls not in exempt and name not in read
    )


def test_every_record_field_is_read():
    # `MiningReport.to_json` writes a ConceptReport through `asdict`, so
    # each of its fields reaches the report JSON without an attribute read.
    package = sorted(SRC.glob("*.py"))
    assert unread_fields(package, _reaching(package), exempt={"ConceptReport"}) == []


def test_an_unread_record_field_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class SearchHit:\n    title: str\n    query: str\n"
        "class RawPage(NamedTuple):\n    url: str\n    html: str\n"
        "@dataclasses.dataclass\n"
        "class Run:\n    notes: list\n    size: int = 0\n"
        "@dataclass\n"
        "class Shown:\n    text: str\n"
        "class Plain:\n    limit: int = 3\n"
        "def fetch(hit, page, run):\n"
        "    run.notes.append(hit.title)\n"
        "    return run.size + len(page.html)\n",
        encoding="utf-8",
    )
    assert unread_fields([module], [module], exempt={"Shown"}) == [
        "RawPage.url",
        "Run.notes",
        "SearchHit.query",
    ]


# The pipeline's stages take the one validated `PipelineConfig` and read
# their parameters from it, so a stage parameter with a default of its own
# is a second copy of a config value that can drift from the first.
STAGE_MODULES = ("linguistic", "expansion", "wrappers", "concepts", "ranking")


def _defaults(func):
    """(parameter name, default node) of each defaulted parameter of `func`."""
    args = func.args
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _is_number(node: ast.expr) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return type(value) in (int, float)


def shadow_defaults(files, stage_modules) -> list[str]:
    """``file:function:parameter`` for each defaulted ``cfg`` parameter in
    `files`, and for each int or float default in the modules named in
    `stage_modules`."""
    found = []
    for path in sorted(files):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for arg, default in _defaults(func):
                stage_number = path.stem in stage_modules and _is_number(default)
                if arg.arg == "cfg" or stage_number:
                    found.append(f"{path.name}:{getattr(func, 'name', 'lambda')}:{arg.arg}")
    return found


def test_no_stage_keeps_a_copy_of_a_config_default():
    files = sorted(SRC.glob("*.py"))
    assert {f"{name}.py" for name in STAGE_MODULES} <= {path.name for path in files}
    assert shadow_defaults(files, STAGE_MODULES) == []


def test_a_shadow_default_is_reported(tmp_path):
    stage = tmp_path / "stage.py"
    stage.write_text(
        "def run(items, cfg=None):\n    return items\n"
        "def group(items, threshold=0.65, *, n_max=-3, strict=True, name='x', cfg):\n"
        "    return items\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.py"
    other.write_text(
        "def show(report, top=10):\n    return report\n"
        "def load(path, *, cfg=None):\n    return path\n",
        encoding="utf-8",
    )
    assert shadow_defaults([stage, other], ("stage",)) == [
        "other.py:load:cfg",
        "stage.py:run:cfg",
        "stage.py:group:threshold",
        "stage.py:group:n_max",
    ]


# Input from outside the program is checked where it enters: the seed by
# `pipeline.check_seed`, the config by `PipelineConfig`, fixtures and gold
# files by their loaders.  Each stage takes what `mine` or the stage before
# it produced, so a `raise` in a stage module re-checks a fact that another
# module already owns.
def raise_statements(files) -> list[str]:
    """``file:line`` of each ``raise`` statement in `files`."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(files)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
    ]


def test_no_stage_re_checks_its_input():
    files = [SRC / f"{name}.py" for name in STAGE_MODULES]
    assert all(path.is_file() for path in files)
    assert raise_statements(files) == []


def test_a_raise_statement_is_reported(tmp_path):
    stage = tmp_path / "stage.py"
    stage.write_text(
        "def run(items):\n"
        "    if not items:\n        raise ValueError('empty')\n"
        "    try:\n        return items[0]\n"
        "    except IndexError:\n        raise\n",
        encoding="utf-8",
    )
    assert raise_statements([stage]) == ["stage.py:3", "stage.py:7"]
