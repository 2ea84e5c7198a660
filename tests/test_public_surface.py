"""Public-surface guard: every public name in ``repro`` is run by
something other than its own tests, every option is set by it, every
dataclass field is read by it, and every import is loaded.

The scan parses every module under ``src/repro`` and lists its public
top-level functions and classes and the public methods of its top-level
classes.  It then looks for a use of each name in the code that runs the
package: ``src/`` (without the ``__init__.py`` imports and export tables),
``benchmarks/``, ``examples/``, ``perfbench/``, ``.github/`` and
``pyproject.toml``.  A name with no use is surface that only ``tests/``
reads; delete it with its tests, or put it on ``KEEP`` with the reason a
test needs it.

A Python file is read through its syntax tree.  An import, an attribute
or a word inside a string (a ``getattr`` key, a format string) uses a
name anywhere; a bare name uses it only in the module that defines it,
since anywhere else it would need an import.  A docstring is not a use:
it describes a name, it does not run it.  Other files are read word by
word.  Matching is by name, not by binding, so the scan under-reports:
any attribute ``x.run`` counts as a use of every method ``run``.

The option scan lists each keyword-only parameter with a default and
each dataclass field with a default, and fails on one that no call
outside ``tests/`` passes: an option that only tests set is a second
behaviour the package never runs.  A call sets a parameter when it
passes the keyword to a callee of the function's name (the class name
for ``__init__`` and for fields; ``cls`` names the enclosing class and
``super().__init__`` its first base), or
when it passes ``**mapping`` to that callee, unless the mapping is the
caller's own ``**kwargs``, in which case what sets the caller's keyword
sets the callee's.  A field is also set by ``replace(x, field=...)``, by
a positional constructor argument, and by storing into ``x.field`` or
mutating it in place (``x.field[k] = v``, ``x.field.append(v)``).  The
field scan fails on a dataclass field that no attribute read
``x.field``, and no string naming it exactly, uses outside ``tests/``.

The import scan fails on a name that a module of ``src/repro`` imports
and never uses; a use in an annotation, quoted or not, counts, and the
``__init__.py`` files are exempt.

A package's export table (the ``lazy_exports`` call of its
``__init__.py``) names the names it lists, it does not use them: every
scan reads the call without its table.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CONSUMERS = ("benchmarks", "examples", "perfbench", ".github", "pyproject.toml")
# A word, but not the prefix of a string literal such as f"..." or rb'...'.
WORD = re.compile(r"""\b(?![bBfFrRuU]{1,2}['"])[A-Za-z_]\w*""")

# Names that only tests read, kept because a test reads them to check
# other code or a paper figure.  Methods and dataclass fields are
# ``Class.name``; keyword-only parameters are ``callee(name=)``, with the
# class as the callee of ``__init__``.  An option or field stays only as
# a test seam, a fault-injection hook, a safety bound or paper API that
# tier-1 pins.
KEEP = {
    "squeeze_whitespace": "tests/oracles/rules.py builds the legacy rule oracle on it",
    "is_inline": "tests/oracles/tidy.py builds the legacy tidy oracle on it",
    "is_block": "tests/oracles/tidy.py builds the legacy tidy oracle on it",
    "is_heading": "tests/oracles/tidy.py builds the legacy tidy oracle on it",
    "iter_postorder": "tests/oracles/rules.py and tidy.py walk trees the legacy way with it",
    "Node.ancestors": "tests/oracles/tidy.py finds enclosing <pre> elements with it",
    "ConstraintSet.allows_path": (
        "the whole-path reference predicate the miner's per-prefix extensions are tested against"
    ),
    "Concept.first_match": "knowledge-base tests check each concept's patterns on sample text with it",
    "DocumentPaths.contains": "tests/oracles/schema_stats.py computes reference support and ratio with it",
    "XMLRepository.query_path": "Section 3.3 path-index lookup; tested against the tree walk",
    "find_first": "the path query API's one-result form; conversion tests read output with it",
    "KnowledgeBase.total_instances": "pins the paper's 233 KB instances in test_paper_counts",
    "Element.text_children": "parser and tidy tests check decoded and merged text through it",
    "MajoritySchema.contains_path": "majority-schema tests check mined paths through it",
    "MultinomialNaiveBayes.log_posteriors": "tests check its scoring tables against the formula",
    "QuantileDigest.relative_error": "quantile tests check the digest's error bound against it",
    "Tracer.by_name": "stage-clock and discovery tests select recorded spans through it",
    "ProvenanceLog.by_kind": "fault-tolerance tests select recorded error events through it",
    "ConstraintSet.add_parent": "Section 2.2 constraint authoring API",
    "ConstraintSet.add_sibling": "Section 2.2 constraint authoring API",
    "ConstraintSet.is_empty": "Section 2.2 constraint authoring API",
    "Concept.add_pattern": "Section 2.2 concept authoring API",
    "ProgressReporter(stream=)": "test seam: progress tests inject the stream the line goes to",
    "ProgressReporter(min_interval=)": "test seam: progress tests set the render rate limit",
    "ProgressReporter(clock=)": "test seam: progress tests inject the clock the rate limit reads",
    "build_run_record(run_id=)": "test seam: ledger tests inject the run ids they look up",
    "ResumeCorpusGenerator(styles=)": (
        "test seam: test_fast_rules_differential generates one corpus per style"
    ),
    "ConversionService(conversion=)": "fault injection: carries the chaos markers to the engine",
    "EngineConfig.max_pool_rebuilds": "safety bound: caps worker-pool rebuilds after crashes",
    "XMLRepository(max_repair_operations=)": "safety bound: caps the repair one insert may do",
    "TopicCrawler(max_pages=)": "safety bound: caps the pages one crawl visits",
    "add_parent(negated=)": "paper API pinned in tier-1: Section 2.2's negated constraints",
    "add_sibling(negated=)": "paper API pinned in tier-1: Section 2.2's negated constraints",
    "add_depth(negated=)": "paper API pinned in tier-1: Section 2.2's negated constraints",
    "mine_frequent_paths(extend_zero_support=)": (
        "paper API pinned in tier-1: test_paper_pins.py's 1,871 / 68 / 24 enumeration"
    ),
    "ScalingPoint.cpu_seconds": (
        "paper API pinned in tier-1: Figure 5's linear scaling is fitted on it"
    ),
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list[tuple[str, str, Path]]:
    """Each public top-level function or class, and each public method
    of a top-level class, as ``(qualified name, name, module path)``."""
    found: list[tuple[str, str, Path]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not is_public(node.name):
                continue
            found.append((node.name, node.name, path))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if is_method and is_public(item.name):
                        found.append((f"{node.name}.{item.name}", item.name, path))
    return found


def is_reexport(node: ast.stmt) -> bool:
    """An ``__init__.py`` import: it names, not uses."""
    return isinstance(node, (ast.Import, ast.ImportFrom))


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and
    functions."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }


def python_uses(path: Path) -> tuple[Counter[str], Counter[str]]:
    """The names a Python file uses from anywhere (imports, attributes,
    words in strings other than docstrings), and the bare names it
    loads."""
    tree = parse(path)
    skipped = docstrings(tree)
    statements = [
        node for node in tree.body if not (path.name == "__init__.py" and is_reexport(node))
    ]
    anywhere: Counter[str] = Counter()
    bare: Counter[str] = Counter()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.alias):
                anywhere.update(WORD.findall(node.name))
            elif isinstance(node, ast.Attribute):
                anywhere[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in skipped:
                    continue
                anywhere.update(WORD.findall(node.value))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare[node.id] += 1
    return anywhere, bare


def is_left_behind(path: Path, top: Path) -> bool:
    """Bytecode caches and dot-directories (benchmark and test output)
    are not code that runs the package."""
    parts = path.relative_to(top).parts
    return any(part == "__pycache__" or part.startswith(".") for part in parts)


def consumer_files() -> list[Path]:
    """Every file of the code outside ``src/`` that runs the package."""
    files: list[Path] = []
    for name in CONSUMERS:
        top = ROOT / name
        files += [top] if top.is_file() else sorted(
            path for path in top.rglob("*") if path.is_file() and not is_left_behind(path, top)
        )
    return files


def consumer_uses() -> tuple[Counter[str], dict[Path, Counter[str]]]:
    """Names used from anywhere, and per package module its bare loads."""
    anywhere: Counter[str] = Counter()
    bare_by_module: dict[Path, Counter[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses, bare_by_module[path] = python_uses(path)
        anywhere.update(uses)
    for path in consumer_files():
        if path.suffix == ".py":
            uses, _bare = python_uses(path)
            anywhere.update(uses)
        else:
            anywhere.update(WORD.findall(path.read_text(encoding="utf-8", errors="replace")))
    return anywhere, bare_by_module


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def is_init_false(value: ast.expr | None) -> bool:
    """``field(init=False, ...)``: a field no caller can set."""
    return isinstance(value, ast.Call) and any(
        keyword.arg == "init" and isinstance(keyword.value, ast.Constant) and not keyword.value.value
        for keyword in value.keywords
    )


class Definitions(ast.NodeVisitor):
    """Keyword-only parameters with a default, as ``(callee, name)``, and
    dataclass fields, as ``(class, name, position, settable)``, where a
    settable field has a default and is an ``__init__`` parameter."""

    def __init__(self) -> None:
        self.options: list[tuple[str, str]] = []
        self.fields: list[tuple[str, str, int, bool]] = []
        self.classes: list[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if is_dataclass(node):
            position = 0
            for item in node.body:
                is_field = isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                if not is_field or "ClassVar" in ast.unparse(item.annotation):
                    continue
                settable = item.value is not None and not is_init_false(item.value)
                self.fields.append((node.name, item.target.id, position, settable))
                position += 1
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        is_init = node.name == "__init__" and self.classes and node in self.classes[-1].body
        callee = self.classes[-1].name if is_init else node.name
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                self.options.append((callee, arg.arg))
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


class Uses(ast.NodeVisitor):
    """What the visited code passes to callees, stores into attributes
    and reads from them, matched by name."""

    def __init__(self) -> None:
        self.keywords: Counter[tuple[str, str]] = Counter()
        self.spread: set[str] = set()  # callees handed a **mapping
        self.forwarders: dict[str, set[str]] = {}  # callee -> callers passing their **kwargs
        self.positional: Counter[str] = Counter()  # callee -> most positional arguments
        self.stored: Counter[str] = Counter()
        self.read: Counter[str] = Counter()
        self.scopes: list[ast.AST] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def enclosing(self, kind: type) -> ast.AST | None:
        return next((scope for scope in reversed(self.scopes) if isinstance(scope, kind)), None)

    def callee(self, func: ast.expr) -> str:
        enclosing_class = self.enclosing(ast.ClassDef)
        if isinstance(func, ast.Attribute):
            is_super = isinstance(func.value, ast.Call) and getattr(func.value.func, "id", "") == "super"
            if func.attr == "__init__" and is_super and enclosing_class and enclosing_class.bases:
                return self.callee(enclosing_class.bases[0])
            return func.attr
        name = getattr(func, "id", "")
        return enclosing_class.name if name == "cls" and enclosing_class else name

    def caller(self) -> tuple[str, str | None]:
        """The enclosing function's callee name and its ``**kwargs`` name."""
        function = self.enclosing((ast.FunctionDef, ast.AsyncFunctionDef))
        if function is None:
            return "", None
        position = self.scopes.index(function)
        owner = self.scopes[position - 1] if position else None
        is_init = function.name == "__init__" and isinstance(owner, ast.ClassDef)
        kwargs = function.args.kwarg.arg if function.args.kwarg else None
        return (owner.name if is_init else function.name), kwargs

    def visit_Call(self, node: ast.Call) -> None:
        callee = self.callee(node.func)
        caller, own_kwargs = self.caller()
        for keyword in node.keywords:
            if keyword.arg is not None:
                self.keywords[callee, keyword.arg] += 1
                if callee == "replace":
                    self.stored[keyword.arg] += 1
            elif isinstance(keyword.value, ast.Name) and keyword.value.id == own_kwargs:
                self.forwarders.setdefault(callee, set()).add(caller)
            else:
                self.spread.add(callee)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            self.spread.add(callee)
        self.positional[callee] = max(self.positional[callee], len(node.args))
        if callee in ("setattr", "__setattr__") and len(node.args) >= 2:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.stored[name.value] += 1
        # x.field.append(...) fills x.field in place.
        if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Attribute):
            self.stored[node.func.value.attr] += 1
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # x.field[key] = value fills x.field in place.
        if not isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Attribute):
            self.stored[node.value.attr] += 1
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.read[node.attr] += 1
        else:
            self.stored[node.attr] += 1
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.read[node.value] += 1

    def sets(self, callee: str, name: str, seen: frozenset[str] = frozenset()) -> bool:
        """Whether some call passes ``name`` to ``callee``."""
        if self.keywords[callee, name] or callee in self.spread:
            return True
        return any(
            self.sets(forwarder, name, seen | {callee})
            for forwarder in self.forwarders.get(callee, set()) - seen
        )


def is_export_table(node: ast.stmt) -> bool:
    """A package's ``lazy_exports(globals(), {module: names})`` call."""
    call = node.value if isinstance(node, ast.Expr) else None
    return isinstance(call, ast.Call) and getattr(call.func, "id", "") == "lazy_exports"


def parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``, with an ``__init__.py``'s export
    table cut from its ``lazy_exports`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if path.name == "__init__.py":
        for node in tree.body:
            if is_export_table(node):
                del node.value.args[1:]
    return tree


def package_definitions() -> Definitions:
    definitions = Definitions()
    for path in sorted(PACKAGE.rglob("*.py")):
        definitions.visit(parse(path))
    return definitions


def uses_outside_tests() -> Uses:
    uses = Uses()
    for path in sorted(PACKAGE.rglob("*.py")) + consumer_files():
        if path.suffix == ".py":
            uses.visit(parse(path))
    return uses


def unset_options() -> list[str]:
    """Options with a default that no call outside tests sets."""
    definitions, uses = package_definitions(), uses_outside_tests()
    unset = [
        f"{callee}({name}=)"
        for callee, name in definitions.options
        if not uses.sets(callee, name)
    ]
    unset += [
        f"{owner}.{name}"
        for owner, name, position, settable in definitions.fields
        if settable
        and not uses.sets(owner, name)
        and not uses.stored[name]
        and uses.positional[owner] <= position
    ]
    return unset


def unread_fields() -> list[str]:
    """Dataclass fields that no code outside tests reads."""
    definitions, uses = package_definitions(), uses_outside_tests()
    return [
        f"{owner}.{name}"
        for owner, name, _position, _settable in definitions.fields
        if not uses.read[name]
    ]


def quoted_annotation_names(tree: ast.Module) -> set[str]:
    """Names inside annotations written as strings (``"EngineStats"``)."""
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name))
    return names


def unloaded_imports(path: Path) -> list[str]:
    """Names that the module at ``path`` imports and never loads."""
    tree = parse(path)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = quoted_annotation_names(tree) | {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_every_public_name_is_run_outside_tests():
    anywhere, bare_by_module = consumer_uses()
    unused = sorted(
        qualified
        for qualified, name, module in public_definitions()
        if not anywhere[name] and not bare_by_module[module][name] and qualified not in KEEP
    )
    assert not unused, (
        "public names that nothing outside tests/ uses "
        "(delete them, or add each to KEEP with a reason): " + ", ".join(unused)
    )


def test_keep_list_names_exist():
    definitions = package_definitions()
    defined = {qualified for qualified, _name, _module in public_definitions()}
    defined |= {f"{callee}({name}=)" for callee, name in definitions.options}
    defined |= {f"{owner}.{name}" for owner, name, _position, _settable in definitions.fields}
    missing = sorted(set(KEEP) - defined)
    assert not missing, "KEEP lists names that src/repro no longer defines: " + ", ".join(missing)


def test_every_option_is_set_outside_tests():
    unset = sorted(set(unset_options()) - set(KEEP))
    assert not unset, (
        "options with a default that nothing outside tests/ sets (make each "
        "the value every caller gets, or add it to KEEP with a reason): " + ", ".join(unset)
    )


def test_every_dataclass_field_is_read_outside_tests():
    unread = sorted(set(unread_fields()) - set(KEEP))
    assert not unread, (
        "dataclass fields that nothing outside tests/ reads (delete each with the "
        "code that fills it, or add it to KEEP with a reason): " + ", ".join(unread)
    )


def test_every_import_is_loaded():
    unloaded = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for name in unloaded_imports(path)
    ]
    assert not unloaded, "imported names that no code loads: " + ", ".join(unloaded)
