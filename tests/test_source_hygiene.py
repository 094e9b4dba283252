"""Source hygiene: no dead imports, no unread parameters, no default that no
call overrides, no runtime code that only tests call, no ``NamedTuple``
field or ``__init__`` attribute that nothing reads, no record class without
a docstring, no ``copy`` or ``dataclasses`` module, one function that
imports ``csv``, no ``Enum`` subclass but the fault tree's ``GateOp`` and
``EventCategory``, whose categorical values are plain strings elsewhere, and
no enum ``.value`` read in a stage module or the CLI outside its enum tables.

The package is read with ``ast`` alone; nothing under ``src/resha`` is
imported or run here.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "resha"

# Functions that nothing under src/resha calls but that stay, with the reason.
KEEP = {
    "evaluate": "the acceptance gate and benchmark/checks.py check cut sets with it",
    "bundled_model_path": "the README's library example and the tests load the case study",
    "validate_model": "the library's validation call, which the benchmark and the tests make; "
    "the package itself validates through _validate_and_expand",
    "summary_input": "benchmark/worker.py passes what it returns, the result itself, to render_summary",
}

# Imports that nothing in their module uses but that stay, with the reason.
REEXPORTS = {
    "report.py: export_ft": "benchmark/worker.py imports it from here; it lives in ftree",
    "report.py: import_ft": "benchmark/worker.py and benchmark/checks.py import it from here; "
    "it lives in ftree",
}

# ``NamedTuple`` fields and ``__init__`` attributes that nothing under
# src/resha reads but that stay, with the reason.
_AUTHORED_TEXT = "authored model text: the parser stores it and the test-side serializer reads it"
KEEP_FIELDS = {
    "AnalysisResult.validation": "benchmark/worker.py constructs AnalysisResult with it",
    "Loss.description": _AUTHORED_TEXT,
    "Hazard.description": _AUTHORED_TEXT,
    "DesignClass.description": _AUTHORED_TEXT,
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _package_references(modules: dict[str, ast.Module]) -> Counter[str]:
    found: Counter[str] = Counter()
    for tree in modules.values():
        found.update(_references(tree))
    found.update(_stage_functions(modules))
    return found


def _stage_functions(modules: dict[str, ast.Module]) -> Counter[str]:
    """Functions that ``pipeline.py`` names as ``"module.function"`` strings:
    ``run_stages`` imports the module and calls them."""
    found: Counter[str] = Counter()
    for node in ast.walk(modules["pipeline.py"]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, function = node.value.partition(".")
            if f"{module}.py" in modules and function.isidentifier():
                found[function] += 1
    return found


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _references(tree: ast.AST) -> Counter[str]:
    """Names and attribute names a tree mentions, quoted annotations included."""
    found: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(_references(ast.parse(node.value, mode="eval")))
    return found


def _calls(tree: ast.AST) -> Counter[str]:
    """Names and attribute names a tree calls."""
    found: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                found[node.func.id] += 1
            elif isinstance(node.func, ast.Attribute):
                found[node.func.attr] += 1
    return found


def _self_targets(node: ast.Assign | ast.AnnAssign):
    """The names of the ``self.<name>`` attributes an assignment sets."""
    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr


def _field_names(modules: dict[str, ast.Module]) -> set[str]:
    """Names declared in a class body or assigned as ``self.<name>``."""
    names: set[str] = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names.update(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names.update(_self_targets(node))
    return names


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _class_fields(node: ast.ClassDef) -> list[str]:
    """The annotated fields of a ``NamedTuple`` class, or the attributes a
    class sets on ``self`` in ``__init__``."""
    if _is_named_tuple(node):
        return [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return [
        name
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        for statement in ast.walk(item)
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for name in _self_targets(statement)
    ]


def _stored_fields(modules: dict[str, ast.Module]) -> dict[str, str]:
    """``Class.field`` -> field name, for every field of every class."""
    return {
        f"{node.name}.{name}": name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for name in _class_fields(node)
    }


# Methods that put values into a collection.  A load whose only use is to
# receive them, with the call's result dropped, fills the value but reads nothing.
_FILLS = {"append", "extend", "setdefault", "update", "add", "insert"}


def _filled_loads(tree: ast.AST) -> set[ast.Attribute]:
    """Attribute loads that are only the receiver of a dropped fill call,
    or of a chain of them such as ``x.table.setdefault(k, []).append(v)``."""
    filled: set[ast.Attribute] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Expr):
            continue
        receiver = node.value
        while (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr in _FILLS
        ):
            receiver = receiver.func.value
        if isinstance(receiver, ast.Attribute) and receiver is not node.value:
            filled.add(receiver)
    return filled


def _read_names(modules: dict[str, ast.Module]) -> set[str]:
    """Attribute names loaded anywhere other than to be filled, plus every
    string constant: ``_asdict`` keys and ``STAGES`` input names read a field
    by its name."""
    names: set[str] = set()
    for tree in modules.values():
        filled = _filled_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node not in filled:
                    names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _imported_names(tree: ast.Module) -> list[str]:
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = _references(tree)
        unused.extend(f"{name}: {i}" for i in _imported_names(tree) if not used[i])
    # A kept re-export that is used, or no longer imported, fails here too.
    assert sorted(unused) == sorted(REEXPORTS)


def test_every_record_class_has_a_docstring():
    # A class with fields is a record, and its docstring is where they are
    # described.
    records = [
        (name, node)
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _class_fields(node)
    ]
    assert len(records) >= 27
    missing = [f"{name}:{node.lineno}: {node.name}" for name, node in records if ast.get_docstring(node) is None]
    assert missing == []


def test_every_parameter_is_read():
    unread = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                inner.id
                for statement in body
                for inner in ast.walk(statement)
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
            }
            unread.extend(
                f"{name}:{node.lineno}: {param.arg}"
                for param in params
                if param is not None
                and param.arg not in read
                and param.arg not in ("self", "cls")
                and not param.arg.startswith("_")
            )
    assert unread == []


def _calls_by_name(paths) -> dict[str, list[ast.Call]]:
    """Every call in these files, by the name or attribute name it calls."""
    found: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.setdefault(name, []).append(node)
    return found


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None when
    keyword-only) or named ``name``; a ``*`` or ``**`` argument passes all."""
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return position is not None
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed():
    # A default that no call overrides is a constant, so it is written as one.
    calls = _calls_by_name(
        sorted([*SRC.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("benchmark/*.py")])
    )
    unpassed = []
    for module, tree in _modules().items():
        methods = {
            item: cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args][1 if node in methods else 0 :]
            first = len(positional) - len(args.defaults)
            defaulted = [
                *((i, arg) for i, arg in enumerate(positional) if i >= first),
                *((None, arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default),
            ]
            # A class is called by its own name to run its ``__init__``.
            called = methods[node] if node.name == "__init__" else node.name
            unpassed.extend(
                f"{module}:{node.lineno}: {node.name}({arg.arg})"
                for position, arg in defaulted
                if not any(_passes(call, position, arg.arg) for call in calls.get(called, ()))
            )
    assert unpassed == []


def test_every_function_has_a_runtime_caller():
    modules = _modules()
    everywhere = _package_references(modules)
    calls: Counter[str] = Counter()
    for tree in modules.values():
        calls.update(_calls(tree))
    fields = _field_names(modules)
    uncalled = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fn = node.name
            if fn in KEEP or (fn.startswith("__") and fn.endswith("__")):
                continue
            # A read of a field with the method's name is no call, so such a
            # method (a property aside) needs a call site.  A function that
            # only calls itself has no caller.
            if fn in fields and not _is_property(node):
                callers = calls[fn] - _calls(node)[fn]
            else:
                callers = everywhere[fn] - _references(node)[fn]
            if callers <= 0:
                uncalled.append(f"{name}: {fn}")
    assert uncalled == []


def test_keep_entries_are_defined_and_uncalled():
    modules = _modules()
    defined = {
        node.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    everywhere = _package_references(modules)
    assert sorted(set(KEEP) - defined) == []
    # An entry the package itself now calls no longer needs a reason to stay.
    assert sorted(name for name in KEEP if everywhere[name]) == []


def test_every_record_field_is_read():
    # ``NamedTuple`` fields and ``__init__`` attributes alike; a value that is
    # only filled, never read back, counts as unread.
    modules = _modules()
    read = _read_names(modules)
    fields = _stored_fields(modules)
    assert len(fields) >= 144
    # A kept entry that is read, or is no longer a field, fails here too.
    assert sorted(key for key, name in fields.items() if name not in read) == sorted(KEEP_FIELDS)


def test_a_value_that_is_only_filled_is_unread():
    tree = ast.parse(
        "self.a.append(1)\n"
        "self.b.setdefault(k, []).append(v)\n"
        "got = self.c.setdefault(k, [])\n"
        "self.d.get(k).append(v)\n"
        "self.e\n"
    )
    assert sorted(load.attr for load in _filled_loads(tree)) == ["a", "b"]


def _importers(module: str) -> list[str]:
    """Where a package module imports ``module``, as ``file:line``."""
    importers = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module or "").split(".")[0]]
            else:
                continue
            if module in modules:
                importers.append(f"{name}:{node.lineno}")
    return importers


def test_no_module_imports_copy():
    # Model and tree stages build what they change and share the rest.
    assert _importers("copy") == []


def test_no_module_imports_dataclasses():
    # Importing ``dataclasses`` loads ``inspect``, and each decorated class
    # compiles its methods with ``exec``: together 10-14 ms at the start
    # of every ``resha`` process.  Records are ``NamedTuple`` or plain classes.
    assert _importers("dataclasses") == []


def _imports_csv(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "csv" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv"


def test_one_function_imports_csv():
    # Every CSV file takes one quoting fallback, ``report.csv_table``, and it
    # alone loads the csv module, only when a field needs quoting.
    modules = _modules()
    importers = [
        f"{name}: {function.name}"
        for name, tree in modules.items()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_imports_csv(node) for node in ast.walk(function))
    ]
    assert importers == ["report.py: csv_table"]
    assert sum(_imports_csv(node) for tree in modules.values() for node in ast.walk(tree)) == 1


def test_only_the_tree_enums_subclass_enum():
    # Every other categorical value is the plain string that documents and
    # artifacts use, so it needs no table to turn it back into that string.
    enums = [
        f"{name}: {node.name}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "Enum" for base in node.bases)
    ]
    assert enums == ["ftree.py: GateOp", "ftree.py: EventCategory"]


def test_stages_read_enum_strings_from_tables():
    # ``member.value`` runs a descriptor on every read, so the stage and
    # renderer modules, and the CLI listings, read an enum's strings from the
    # one module-level table beside it (see the ``resha.ftree`` docstring).
    modules = _modules()
    reads = []
    for name in ("ccf.py", "cli.py", "cutsets.py", "ftree.py", "model.py", "report.py", "stpa.py"):
        tables = [
            node
            for node in modules[name].body
            if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.DictComp)
        ]
        in_tables = {id(inner) for table in tables for inner in ast.walk(table)}
        reads += [
            f"{name}:{node.lineno}"
            for node in ast.walk(modules[name])
            if isinstance(node, ast.Attribute) and node.attr == "value" and id(node) not in in_tables
        ]
    assert reads == []
