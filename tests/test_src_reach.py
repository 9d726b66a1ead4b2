"""src/ holds only what the package runs.

Walks name references, by ast, out of cli.main, the demos and perfbench,
through every top-level function and class of src/codehom they reach. A
reached function or class counts every name in its body; a module's own
top-level statements run on import, so they count too. Names resolve
through `from .x import y` and `import codehom.x as y` as Python would.

Every top-level function and class must be reached, except the ones
listed in KEPT with a reason. A kept name that becomes reachable fails
the test as well, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "codehom"

TRACED = "perfbench's Tracer.install getattr's it by name; it leaves src/ after its target does"
KEPT = {
    "circuit.layerize": TRACED,
    "circuit.eval_plain_array": TRACED,
    "linalg.solve_canonical_array": TRACED,
    "linalg.rref_array": "the elimination under solve_canonical_array, which perfbench traces",
    "linalg.random_unimodular_array": TRACED,
    "reencrypt.aux_gen_preserving": "its fate waits on the noisy-regime map (ROADMAP item 5)",
    "reencrypt.preserving_sizes": "the sizes of aux_gen_preserving's chains (ROADMAP item 5)",
    "hom.dec_k_contains": "the decodable-space audit hom-eval --report builds on (ROADMAP item 4)",
    "scheme.dec_membership_batch": "the per-part audit under dec_k_contains (ROADMAP item 4)",
    "circuit.format_netlist": "the public writer of the netlist format parse_netlist reads",
}


class Index:
    """Top-level definitions, imported names and module aliases of every module."""

    def __init__(self):
        self.trees = {}
        self.defs = {}     # module -> {name: def or class node}
        self.imports = {}  # module -> {local name: (module, name)}
        self.aliases = {}  # module -> {local name: module}
        for path in sorted(PACKAGE.glob("*.py")):
            mod = path.stem
            tree = ast.parse(path.read_text(), str(path))
            self.trees[mod] = tree
            self.defs[mod] = {
                node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
            self.imports[mod], self.aliases[mod] = bindings(tree, package_relative=True)

    def resolve(self, mod: str, name: str, seen=()):
        """The (module, name) of the definition `name` means in `mod`, or None."""
        if name in self.defs.get(mod, {}):
            return mod, name
        target = self.imports.get(mod, {}).get(name)
        if target is None or target in seen:
            return None
        return self.resolve(*target, seen=seen + (target,))


def bindings(tree: ast.AST, package_relative: bool):
    """Names bound to codehom definitions and to codehom modules, anywhere in tree."""
    imports, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if package_relative and node.level == 1:
                source = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == "codehom":
                source = node.module[len("codehom."):] if "." in node.module else None
            else:
                continue
            for a in node.names:
                if source is None:          # from codehom import field
                    aliases[a.asname or a.name] = a.name
                else:
                    imports[a.asname or a.name] = (source, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("codehom.") and a.asname:
                    aliases[a.asname] = a.name[len("codehom."):]
    return imports, aliases


def references(node: ast.AST):
    """Every bare name and every `alias.attr` pair under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, None
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield sub.value.id, sub.attr


def reached(index: Index) -> set[tuple[str, str]]:
    todo = []  # reached (module, name) pairs whose bodies are still to walk

    def refer(mod, imports, aliases, node):
        for name, attr in references(node):
            if attr is not None and name in aliases:
                target = index.resolve(aliases[name], attr)
            elif name in index.defs.get(mod, {}):
                target = (mod, name)
            elif name in imports:
                target = index.resolve(*imports[name])
            else:
                target = None
            if target is not None and target not in done:
                done.add(target)
                todo.append(target)

    done = {("cli", "main")}
    todo.append(("cli", "main"))
    for mod, tree in index.trees.items():
        top = [n for n in tree.body if n not in index.defs[mod].values()]
        refer(mod, index.imports[mod], index.aliases[mod], ast.Module(top, []))
    for path in sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        imports, aliases = bindings(tree, package_relative=False)
        refer(None, imports, aliases, tree)
    while todo:
        mod, name = todo.pop()
        refer(mod, index.imports[mod], index.aliases[mod], index.defs[mod][name])
    return done


def test_src_holds_only_what_the_package_runs():
    index = Index()
    defined = {(mod, name) for mod, defs in index.defs.items() for name in defs}
    unreached = {f"{mod}.{name}" for mod, name in defined - reached(index)}
    assert sorted(unreached - set(KEPT)) == [], "called only by tests: move or delete them"
    assert sorted(set(KEPT) - unreached) == [], "reachable now: drop them from KEPT"
