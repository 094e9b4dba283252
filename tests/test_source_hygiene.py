"""Source hygiene: no dead imports, no unread parameters, no default that no
call overrides, no runtime code that only tests call, no record field
(``NamedTuple`` field, ``__init__`` attribute or ``AnalysisResult`` value)
that nothing reads through a value of its own class, no record class without
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
from typing import Callable

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

# Record fields (``NamedTuple`` fields, ``__init__`` attributes and the
# ``AnalysisResult`` values) that nothing under src/resha reads but that
# stay, with the reader.
_AUTHORED_TEXT = "authored model text: the parser stores it and the test-side serializer reads it"
_LIBRARY_VALUE = "an intermediate product that the README's library section lists"
_PARSE_DIGEST = "tests/test_dsl.py reads it into the parse-outcome digest"
KEEP_FIELDS = {
    "AnalysisResult.validation": "benchmark/worker.py constructs AnalysisResult with it",
    "AnalysisResult.model": f"{_LIBRARY_VALUE}; tests/test_model.py reads it",
    "AnalysisResult.structure": f"{_LIBRARY_VALUE}; tests/test_stpa.py reads it",
    "AnalysisResult.hardware_tree": f"{_LIBRARY_VALUE}; tests/test_ftree.py and tests/test_ccf.py read it",
    "AnalysisResult.integrated_tree": f"{_LIBRARY_VALUE}; tests/test_ftree.py and tests/test_ccf.py read it",
    "ParseError.message": _PARSE_DIGEST,
    "ParseError.span": _PARSE_DIGEST,
    "Loss.description": _AUTHORED_TEXT,
    "Hazard.description": _AUTHORED_TEXT,
    "DesignClass.description": _AUTHORED_TEXT,
}

# Fields whose name other record classes share, and which src/resha reads
# only from values whose class the field test cannot tell, with the reason
# those reads are theirs.  Such a read counts for the fields listed here and
# for no other.  None is needed today: every such read is typed.
AMBIGUOUS_FIELDS: dict[str, str] = {}


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


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _class_fields(node: ast.ClassDef) -> dict[str, ast.expr | None]:
    """The annotated fields of a ``NamedTuple`` class, or the attributes a
    class sets on ``self`` in ``__init__``, each with its annotation: the
    field's own, or that of the ``__init__`` parameter assigned to it."""
    if _is_named_tuple(node):
        return {
            item.target.id: item.annotation
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
    fields: dict[str, ast.expr | None] = {}
    for item in node.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            continue
        params = {arg.arg: arg.annotation for arg in [*item.args.args, *item.args.kwonlyargs]}
        for statement in ast.walk(item):
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                value = statement.value
                # ``x``, ``a if c else x`` or ``x or a``: the value is the parameter ``x``.
                branches = [value, *getattr(value, "values", ()), getattr(value, "orelse", None)]
                passed = [b.id for b in branches if isinstance(b, ast.Name) and b.id in params]
                for name in _self_targets(statement):
                    if isinstance(statement, ast.AnnAssign):
                        fields[name] = statement.annotation
                    else:
                        fields[name] = params[passed[0]] if passed else None
    return fields


def _result_fields(modules: dict[str, ast.Module]) -> dict[str, ast.expr | None]:
    """``AnalysisResult``'s fields, read from ``pipeline.py``: the names in
    the ``RESULT_FIELDS`` literal, whose ``*STAGES`` stands for the
    ``STAGES`` keys.  A stage value's annotation is the return annotation of
    the function that ``STAGES`` names for it."""
    assigned = {
        target.id: node.value
        for node in modules["pipeline.py"].body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    stages = {
        key.value: value.elts[0].value
        for key, value in zip(assigned["STAGES"].keys, assigned["STAGES"].values)
    }
    returns = {
        f"{name[:-3]}.{node.name}": node.returns
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    fields: dict[str, ast.expr | None] = {}
    for element in assigned["RESULT_FIELDS"].args[0].elts:
        if isinstance(element, ast.Starred):
            assert isinstance(element.value, ast.Name) and element.value.id == "STAGES"
            fields.update((name, returns[qualified]) for name, qualified in stages.items())
        else:
            fields[element.value] = None
    return fields


def _records(modules: dict[str, ast.Module]) -> dict[str, dict[str, ast.expr | None]]:
    """Every class with fields -> its fields, each with its annotation."""
    records = {
        node.name: _class_fields(node)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    records["AnalysisResult"] = _result_fields(modules)
    return {name: fields for name, fields in records.items() if fields}


def _stored_fields(modules: dict[str, ast.Module]) -> dict[str, str]:
    """``Class.field`` -> field name, for every field of every class."""
    return {f"{cls}.{name}": name for cls, fields in _records(modules).items() for name in fields}


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


# Annotations whose value holds many of their one argument.
_SEQUENCES = {"list", "tuple", "set", "frozenset", "Sequence", "Iterable", "Iterator"}

# A value's type as far as records go: a shape, ``"one"`` value, ``"many"``
# (a sequence) or ``"map"`` (a dict's values), and the record classes that
# the value, or each item, may be.  No class at all means a value known to
# hold no record, such as a ``str``; None means an unknown value.
_Type = tuple[str, frozenset[str]]
_PLAIN: _Type = ("one", frozenset())


def _merged(types) -> _Type | None:
    """One type for a value that has any of these types: None if one of them
    is unknown, or if the shapes of those that may hold records differ."""
    types = list(types)
    if None in types:
        return None
    records = [t for t in types if t[1]]
    if len({shape for shape, _ in records}) > 1:
        return None
    return (records[0][0], frozenset().union(*(c for _, c in records))) if records else _PLAIN


class _Types:
    """The record type of an expression, where annotations say it: a
    parameter's, a field's, or the return annotation of a function, method
    or property that is called or read."""

    def __init__(self, modules: dict[str, ast.Module]):
        self.records = _records(modules)
        self.returns: dict[str, ast.expr | None] = {}
        self.methods: dict[str, dict[str, ast.expr | None]] = {}
        # Module-level type aliases that name record classes, such as
        # ``Node = Union[Gate, BasicEvent]``.
        self.aliases: dict[str, ast.expr] = {}
        for tree in modules.values():
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Subscript, ast.BinOp)):
                    if self._mentions_record(node.value):
                        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                        self.aliases.update(dict.fromkeys(names, node.value))
                elif isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = node.returns
                elif isinstance(node, ast.ClassDef):
                    self.methods[node.name] = {
                        item.name: item.returns for item in node.body if isinstance(item, ast.FunctionDef)
                    }

    def _mentions_record(self, annotation: ast.expr) -> bool:
        names = {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)}
        return any(name in self.records or name in self.aliases for name in names)

    def annotated(self, annotation: ast.expr | None) -> _Type | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        if not self._mentions_record(annotation):
            return _PLAIN
        if isinstance(annotation, ast.Name):
            if annotation.id in self.aliases:
                return self.annotated(self.aliases[annotation.id])
            return ("one", frozenset([annotation.id]))
        if isinstance(annotation, ast.BinOp):  # ``A | B``, where ``None`` is plain
            return _merged([self.annotated(annotation.left), self.annotated(annotation.right)])
        if isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name):
            args = annotation.slice.elts if isinstance(annotation.slice, ast.Tuple) else [annotation.slice]
            base = annotation.value.id
            if base == "Union":
                return _merged(self.annotated(arg) for arg in args)
            if base == "tuple" and not (len(args) == 2 and isinstance(args[1], ast.Constant)):
                return None  # a fixed-length tuple, whose items differ
            inner = self.annotated(args[-1] if base == "dict" else args[0])
            if inner and inner[0] == "one" and (base == "dict" or base in _SEQUENCES):
                return ("map" if base == "dict" else "many", inner[1])
        return None

    def member(self, held: _Type | None, name: str) -> _Type | None:
        """The type of field or property ``name`` of a ``held`` value, or of
        what its method ``name`` returns."""
        if held is None:
            return None
        if not held[1]:
            return _PLAIN
        if held[0] != "one":
            return None
        return _merged(
            self.annotated(self.records[cls][name] if name in self.records[cls] else self.methods[cls][name])
            for cls in held[1]
            if name in self.records[cls] or name in self.methods.get(cls, {})
        )

    def of(self, expr: ast.expr, scope: dict[str, _Type | None]) -> _Type | None:
        if isinstance(expr, ast.Name):
            return scope.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.member(self.of(expr.value, scope), expr.attr)
        if isinstance(expr, ast.Subscript):
            held = self.of(expr.value, scope)
            return ("one", held[1]) if held and (held[0] != "one" or not held[1]) else None
        if isinstance(expr, ast.DictComp):
            held = self.of(expr.value, scope)
            return ("map", held[1]) if held and held[0] == "one" else None
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in self.records:
                return ("one", frozenset([func.id]))
            return self.annotated(self.returns.get(func.id))
        if isinstance(func, ast.Attribute):
            held = self.of(func.value, scope)
            if held and held[0] == "map" and func.attr in ("get", "values"):
                return ("one" if func.attr == "get" else "many", held[1])
            return self.member(held, func.attr)
        return None

    def item(self, iterable: ast.expr, scope: dict[str, _Type | None]) -> _Type | None:
        held = self.of(iterable, scope)
        return ("one", held[1]) if held and (held[0] == "many" or not held[1]) else None

    def scope(self, function: ast.AST, cls: str | None) -> dict[str, _Type | None]:
        """Each local name of a function, nested functions included, or of
        module code, with one type for every value it is bound to."""
        bindings: list[tuple[tuple[int, int], str, Callable[[dict], _Type | None]]] = []
        if isinstance(function, ast.FunctionDef) and cls is not None and function.args.args:
            bindings.append(((0, 0), function.args.args[0].arg, lambda _: ("one", frozenset([cls]))))
        for node in ast.walk(function):
            if isinstance(node, ast.arg) and node.annotation is not None:
                bindings.append((_at(node), node.arg, lambda _, a=node.annotation: self.annotated(a)))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bindings.append((_at(node.type), node.name, lambda _, a=node.type: self.annotated(a)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and node.value is not None:
                        bindings.append((_at(node), target.id, lambda s, v=node.value: self.of(v, s)))
            elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
                bindings.append((_at(node.iter), node.target.id, lambda s, i=node.iter: self.item(i, s)))
        # In source order, so that a binding reads the names bound before it.
        scope: dict[str, _Type | None] = {}
        for _, name, bound in sorted(bindings, key=lambda binding: binding[0]):
            found = bound(scope)
            scope[name] = _merged([scope[name], found]) if name in scope else found
        return scope


def _at(node: ast.AST) -> tuple[int, int]:
    """Where a binding takes effect: after the code that computes its value."""
    return (node.end_lineno, node.end_col_offset)


def _scopes(tree: ast.Module):
    """Each function of a module with the class it is a method of, and then
    the rest of the module, class bodies included, as one more scope."""
    rest: list[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item, node.name
                else:
                    rest.append(item)
        else:
            rest.append(node)
    yield ast.Module(body=rest, type_ignores=[]), None


def _field_reads(modules: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """``Class.field`` for each field loaded from a value whose class is
    known, and the name of each field loaded from a value of unknown class.
    A load whose only use is to be filled reads nothing, and ``x._asdict()``
    loads every field of ``x``'s class."""
    types = _Types(modules)
    known: set[str] = set()
    unknown: set[str] = set()
    for tree in modules.values():
        filled = _filled_loads(tree)
        for function, cls in _scopes(tree):
            scope = types.scope(function, cls)
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node not in filled:
                    held, names = types.of(node.value, scope), [node.attr]
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_asdict":
                    held, names = types.of(node.func.value, scope), None
                else:
                    continue
                if held is None:
                    unknown.update(names or ())
                elif held[0] == "one":
                    for cls in held[1]:
                        fields = types.records[cls]
                        known.update(f"{cls}.{name}" for name in names or fields if name in fields)
    return known, unknown


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
    modules = _modules()
    fields = _records(modules)
    records = [
        (name, node)
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in fields
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
    fields = set(_stored_fields(modules).values())
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


def _unread_fields(modules: dict[str, ast.Module]) -> list[str]:
    """``Class.field`` for each field that is neither loaded from a value
    of its class nor, where no other record class has a field of its name or
    ``AMBIGUOUS_FIELDS`` lists it, loaded from a value of unknown class."""
    fields = _stored_fields(modules)
    known, unknown = _field_reads(modules)
    shared = Counter(fields.values())
    return sorted(
        key
        for key, name in fields.items()
        if key not in known and not (name in unknown and (shared[name] == 1 or key in AMBIGUOUS_FIELDS))
    )


def test_every_record_field_is_read():
    # ``NamedTuple`` fields, ``__init__`` attributes and the ``AnalysisResult``
    # values alike; a value that is only filled, never read back, counts as unread.
    modules = _modules()
    fields = _stored_fields(modules)
    assert len(fields) >= 144
    # A kept entry that is read, or is no longer a field, fails here too.
    assert _unread_fields(modules) == sorted(KEEP_FIELDS)
    # So does an ambiguous entry that is not a shared field read from a value
    # of unknown class, or that a read from a value of its class makes needless.
    known, unknown = _field_reads(modules)
    shared = Counter(fields.values())
    needless = [
        key
        for key in AMBIGUOUS_FIELDS
        if key in known or shared[fields.get(key)] < 2 or fields[key] not in unknown
    ]
    assert needless == []


def test_a_field_is_read_only_through_its_own_class():
    # ``CcfGroup.members`` and ``RedundancyGroup.members`` are read; a
    # ``GuidanceReport.members`` that is written and never read is unread all
    # the same.
    modules = _modules()
    text = (SRC / "report.py").read_text(encoding="utf-8")
    written = "        self.members: list[str] = []\n        self.diversity_findings"
    modules["report.py"] = ast.parse(text.replace("        self.diversity_findings", written, 1))
    assert _unread_fields(modules) == sorted([*KEEP_FIELDS, "GuidanceReport.members"])


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
