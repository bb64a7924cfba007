"""Cross-module rules: backend parity and registry/signature sync.

These are project-scope rules: they anchor on specific modules
(``repro.backends.*``, ``repro.api.registry``, ``repro.core.kernels``)
and cross-reference their ASTs.  When the corpus does not contain the
anchor modules (e.g. an ad-hoc single-file lint), they report nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.corpus import Corpus, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Rule,
    dotted_name,
    has_kwargs,
    register_rule,
)

_REFERENCE_BACKEND_MODULE = "repro.backends.numpy_backend"
_COMPILED_BACKEND_MODULE = "repro.backends.numba_backend"
_KERNELS_MODULE = "repro.core.kernels"
_REGISTRY_MODULE = "repro.api.registry"


def _signature_tuple(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[tuple[str, ...], tuple[str, ...], bool, bool]:
    """(positional names, kw-only names, *args?, **kwargs?) minus self."""
    args = fn.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    kwonly = [arg.arg for arg in args.kwonlyargs]
    return (
        tuple(positional),
        tuple(kwonly),
        args.vararg is not None,
        args.kwarg is not None,
    )


def _backend_classes(file: SourceFile) -> list[ast.ClassDef]:
    assert file.tree is not None
    found = []
    for node in file.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {dotted_name(base) for base in node.bases}
        if any(
            base is not None and base.split(".")[-1] == "KernelBackend"
            for base in bases
        ):
            found.append(node)
    return found


def _public_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


@register_rule
class BackendParityRule(Rule):
    id = "backend-parity"
    summary = (
        "every kernel of the numpy reference backend exists on the "
        "numba backend with a matching signature, and every public "
        "kernel entry point threads backend="
    )
    invariant = (
        "Backends are interchangeable: a compiled backend implements "
        "exactly the reference kernel set with identical signatures, "
        "and every public kernel in repro.core.kernels dispatches "
        "through an optional backend= parameter."
    )
    scope = "project"

    def check_project(self, corpus: Corpus) -> Iterable[Finding]:
        yield from self._check_class_parity(corpus)
        yield from self._check_kernel_entry_points(corpus)

    def _check_class_parity(self, corpus: Corpus) -> Iterable[Finding]:
        reference = corpus.by_module(_REFERENCE_BACKEND_MODULE)
        compiled = corpus.by_module(_COMPILED_BACKEND_MODULE)
        if reference is None or compiled is None:
            return
        if reference.tree is None or compiled.tree is None:
            return
        ref_classes = _backend_classes(reference)
        comp_classes = _backend_classes(compiled)
        if not ref_classes or not comp_classes:
            return
        ref_cls, comp_cls = ref_classes[0], comp_classes[0]
        ref_methods = _public_methods(ref_cls)
        comp_methods = _public_methods(comp_cls)
        for name, ref_fn in sorted(ref_methods.items()):
            comp_fn = comp_methods.get(name)
            if comp_fn is None:
                yield self.finding(
                    compiled,
                    comp_cls,
                    f"backend {comp_cls.name} is missing kernel "
                    f"{name}() defined by the reference backend "
                    f"{ref_cls.name}",
                )
                continue
            if _signature_tuple(ref_fn) != _signature_tuple(comp_fn):
                yield self.finding(
                    compiled,
                    comp_fn,
                    f"kernel {comp_cls.name}.{name}() signature "
                    f"diverges from the reference "
                    f"{ref_cls.name}.{name}(): backends must be "
                    f"drop-in interchangeable",
                )
        for name in sorted(set(comp_methods) - set(ref_methods)):
            yield self.finding(
                compiled,
                comp_methods[name],
                f"backend {comp_cls.name} defines public kernel "
                f"{name}() absent from the reference {ref_cls.name}: "
                f"extend the reference (and the KernelBackend "
                f"contract) first",
            )

    def _check_kernel_entry_points(self, corpus: Corpus) -> Iterable[Finding]:
        kernels = corpus.by_module(_KERNELS_MODULE)
        if kernels is None or kernels.tree is None:
            return
        exported = _module_all(kernels.tree)
        for node in kernels.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if exported is not None and node.name not in exported:
                continue
            positional, kwonly, _, _ = _signature_tuple(node)
            if not positional or positional[0] != "state":
                # Helpers like gather_ranges operate below the
                # backend dispatch layer; only state-first kernels are
                # public dispatch points.
                continue
            if "backend" not in (*positional, *kwonly):
                yield self.finding(
                    kernels,
                    node,
                    f"public kernel {node.name}() does not accept "
                    f"backend=; every kernel entry point must thread "
                    f"the pluggable-backend dispatch",
                )


def _module_all(tree: ast.Module) -> set[str] | None:
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "__all__" not in targets:
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return None


# ---------------------------------------------------------------------------
# registry-signature-sync
# ---------------------------------------------------------------------------

#: Parameters the SolverSpec machinery consumes before the wrapped
#: function is called.  ``seed`` is popped by SolverSpec.solve and
#: re-injected as a derived ``rng`` Generator, so declaring it is valid
#: exactly when the solver accepts ``rng``.
_MACHINERY_PARAMS = frozenset({"seed"})


@register_rule
class RegistrySignatureSyncRule(Rule):
    id = "registry-signature-sync"
    summary = (
        "every SolverSpec's declared params are accepted by the "
        "wrapped solver (and block) function's actual signature"
    )
    invariant = (
        "The registry's unified parameter schema never drifts from the "
        "concrete solver signatures: a declared ParamSpec the function "
        "cannot accept would turn valid requests into TypeErrors deep "
        "in a worker batch."
    )
    scope = "project"

    def check_project(self, corpus: Corpus) -> Iterable[Finding]:
        registry = corpus.by_module(_REGISTRY_MODULE)
        if registry is None or registry.tree is None:
            return
        tree = registry.tree
        imports = _import_map(tree)
        local_defs = _collect_defs(tree)
        constants = _tuple_constants(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if dotted_name(call.func) != "register_solver":
                continue
            spec_call = call.args[0] if call.args else None
            if not isinstance(spec_call, ast.Call):
                continue
            if dotted_name(spec_call.func) != "SolverSpec":
                continue
            yield from self._check_spec(
                registry, corpus, spec_call, imports, local_defs, constants
            )

    def _check_spec(
        self,
        registry: SourceFile,
        corpus: Corpus,
        spec_call: ast.Call,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
        constants: dict[str, tuple[str, ...]],
    ) -> Iterable[Finding]:
        keywords = {kw.arg: kw.value for kw in spec_call.keywords if kw.arg}
        name_node = keywords.get("name")
        method = (
            name_node.value
            if isinstance(name_node, ast.Constant)
            else "<unknown>"
        )
        declared = _resolve_params(keywords.get("params"), constants)
        if declared is None:
            return
        # The block adapter is handed the same validated parameters.
        for role in ("fn", "block_fn"):
            fn_node = keywords.get(role)
            if fn_node is None:
                continue
            resolved = self._resolve_fn(fn_node, corpus, imports, local_defs)
            if resolved is None:
                continue
            accepted, accepts_anything, target_name = resolved
            if accepts_anything:
                continue
            for param in declared:
                if param in _MACHINERY_PARAMS:
                    if "rng" in accepted:
                        continue
                    yield self.finding(
                        registry,
                        spec_call,
                        f"solver {method!r} declares 'seed' but "
                        f"{target_name}() accepts no 'rng' parameter to "
                        f"receive the derived generator",
                    )
                    continue
                if param not in accepted:
                    yield self.finding(
                        registry,
                        spec_call,
                        f"solver {method!r} declares parameter {param!r} "
                        f"that {target_name}() does not accept; sync the "
                        f"SolverSpec params with the function signature",
                    )

    def _resolve_fn(
        self,
        fn_node: ast.expr,
        corpus: Corpus,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
    ) -> tuple[set[str], bool, str] | None:
        """(accepted params, accepts-anything, display name) for ``fn``."""
        if isinstance(fn_node, ast.Name):
            fn = self._lookup(fn_node.id, corpus, imports, local_defs)
            if fn is None:
                return None
            accepted, anything = _accepted_params(fn)
            return accepted, anything, fn_node.id
        if isinstance(fn_node, ast.Call) and fn_node.args:
            # Wrapper pattern: fn=_wrap(underlying, ...).  The wrapper's
            # returned adapter contributes its own named params and
            # forwards **kwargs to the underlying solver.
            inner = fn_node.args[0]
            if not isinstance(inner, ast.Name):
                return None
            underlying = self._lookup(
                inner.id, corpus, imports, local_defs
            )
            if underlying is None:
                return None
            accepted, anything = _accepted_params(underlying)
            wrapper_name = (
                fn_node.func.id
                if isinstance(fn_node.func, ast.Name)
                else None
            )
            if wrapper_name and wrapper_name in local_defs:
                accepted |= _adapter_extra_params(local_defs[wrapper_name])
            return accepted, anything, inner.id
        return None

    @staticmethod
    def _lookup(
        name: str,
        corpus: Corpus,
        imports: dict[str, str],
        local_defs: dict[str, ast.FunctionDef],
    ) -> ast.FunctionDef | None:
        if name in local_defs:
            return local_defs[name]
        module_name = imports.get(name)
        if module_name is None:
            return None
        module = corpus.by_module(module_name)
        if module is None or module.tree is None:
            return None
        return _collect_defs(module.tree).get(name)


def _import_map(tree: ast.Module) -> dict[str, str]:
    """local name -> source module, for ``from X import a, b as c``."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = node.module
    return imports


def _collect_defs(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _tuple_constants(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b")`` string-tuple assignments."""
    constants: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if not isinstance(value, ast.Tuple):
            continue
        elements: list[str] = []
        resolvable = True
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                elements.append(elt.value)
            elif isinstance(elt, ast.Starred) and isinstance(
                elt.value, ast.Name
            ):
                expansion = constants.get(elt.value.id)
                if expansion is None:
                    resolvable = False
                    break
                elements.extend(expansion)
            else:
                resolvable = False
                break
        if resolvable:
            constants[target.id] = tuple(elements)
    return constants


def _resolve_params(
    node: ast.expr | None, constants: dict[str, tuple[str, ...]]
) -> tuple[str, ...] | None:
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if not isinstance(node, ast.Tuple):
        return None
    elements: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            elements.append(elt.value)
        elif isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Name):
            expansion = constants.get(elt.value.id)
            if expansion is None:
                return None
            elements.extend(expansion)
        else:
            return None
    return tuple(elements)


def _accepted_params(fn: ast.FunctionDef) -> tuple[set[str], bool]:
    """Named params after (graph, source), plus an accepts-** flag."""
    args = fn.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    accepted = set(positional[2:]) | {arg.arg for arg in args.kwonlyargs}
    return accepted, has_kwargs(fn)


def _adapter_extra_params(wrapper: ast.FunctionDef) -> set[str]:
    """Named params the wrapper's nested adapter def(s) add."""
    extra: set[str] = set()
    for node in ast.walk(wrapper):
        if node is wrapper or not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
        extra |= set(positional[2:])
        extra |= {arg.arg for arg in args.kwonlyargs}
    return extra
