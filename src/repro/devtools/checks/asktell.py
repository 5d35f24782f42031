"""RPL4xx — ask/tell protocol conformance.

Every algorithm speaks one batched protocol: the public surface
(``setup``/``ask``/``tell``/``done``) lives on ``CalibrationAlgorithm``
and is *final* — the drivers, the tell-log replay and the async ledger
all assume its exact semantics — while subclasses customize through the
underscore hooks (``_setup``/``_generate``/``_observe``).  An algorithm
claiming ``supports_async_tell`` is promising that the base-class ledger
(out-of-order ``tell``, speculative ``ask``) works unmodified.

* **RPL401** — every algorithm class defines the hook surface
  (``_setup``, ``_generate``), has a ``name`` (class attribute or
  ``self.name`` in ``__init__``), and does not override the final public
  protocol methods.
* **RPL402** — a ``supports_async_tell = True`` class leaves the async
  ledger intact: no overrides of the ledger internals (``_ask_impl``,
  ``_tell_impl``, ``_tell_out_of_order``, ``_ask_freely``).
"""

from __future__ import annotations

import ast

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register_rule

ALGORITHMS_SCOPE = ("repro/core/algorithms/",)

#: final public protocol — overriding any of these breaks driver/ledger
#: assumptions (RPL401)
FINAL_METHODS = {"setup", "ask", "tell", "done"}
#: hooks every algorithm must define (RPL401)
REQUIRED_HOOKS = ("_setup", "_generate")
#: base-class ledger internals async-native algorithms must not touch
#: (RPL402)
LEDGER_METHODS = {"_ask_impl", "_tell_impl", "_tell_out_of_order", "_ask_freely"}

_BASE_CLASS = "CalibrationAlgorithm"


def _base_names(classdef: ast.ClassDef) -> set[str]:
    out: set[str] = set()
    for base in classdef.bases:
        if isinstance(base, ast.Name):
            out.add(base.id)
        elif isinstance(base, ast.Attribute):
            out.add(base.attr)
    return out


def algorithm_classes(ctx: FileContext) -> list[ast.ClassDef]:
    """Classes (transitively) subclassing ``CalibrationAlgorithm`` in this
    file, excluding the base class itself."""
    classdefs = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]
    algorithms = {_BASE_CLASS}
    grew = True
    while grew:
        grew = False
        for classdef in classdefs:
            if classdef.name not in algorithms and _base_names(classdef) & algorithms:
                algorithms.add(classdef.name)
                grew = True
    return [c for c in classdefs if c.name in algorithms and c.name != _BASE_CLASS]


def _defined_methods(classdef: ast.ClassDef) -> dict[str, int]:
    return {
        node.name: node.lineno
        for node in classdef.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_attr_names(classdef: ast.ClassDef) -> set[str]:
    out: set[str] = set()
    for node in classdef.body:
        if isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                out.add(node.target.id)
    return out


def _sets_name_in_init(classdef: ast.ClassDef) -> bool:
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == "name"
                        ):
                            return True
    return False


def _async_native(classdef: ast.ClassDef) -> bool:
    for node in classdef.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "supports_async_tell"
                for t in node.targets
            ):
                return isinstance(node.value, ast.Constant) and bool(node.value.value)
    return False


@register_rule
class AskTellSurface(Rule):
    id = "RPL401"
    title = "algorithms implement the hook surface, never the final protocol"
    scope = ALGORITHMS_SCOPE

    def check_file(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for classdef in algorithm_classes(ctx):
            methods = _defined_methods(classdef)
            for hook in REQUIRED_HOOKS:
                if hook not in methods:
                    findings.append(
                        ctx.finding(
                            self.id,
                            classdef,
                            f"{classdef.name} does not define {hook}()",
                            hint="implement the hook (the drivers rely on the "
                            "full surface)",
                        )
                    )
            if "name" not in _class_attr_names(classdef) and not _sets_name_in_init(
                classdef
            ):
                findings.append(
                    ctx.finding(
                        self.id,
                        classdef,
                        f"{classdef.name} has no `name` (class attribute or "
                        "self.name in __init__)",
                        hint="the registry, resume errors and telemetry label "
                        "algorithms by name",
                    )
                )
            for method, lineno in sorted(methods.items()):
                if method in FINAL_METHODS:
                    findings.append(
                        ctx.finding(
                            self.id,
                            lineno,
                            f"{classdef.name} overrides final protocol method "
                            f"{method}()",
                            hint=f"move the logic into the _{method.lstrip('_')} "
                            "hook; the public method carries telemetry and "
                            "ledger bookkeeping",
                        )
                    )
        return findings


@register_rule
class AsyncTellLedger(Rule):
    id = "RPL402"
    title = "supports_async_tell classes leave the async ledger intact"
    scope = ALGORITHMS_SCOPE

    def check_file(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for classdef in algorithm_classes(ctx):
            if not _async_native(classdef):
                continue
            methods = _defined_methods(classdef)
            for method, lineno in sorted(methods.items()):
                if method in LEDGER_METHODS:
                    findings.append(
                        ctx.finding(
                            self.id,
                            lineno,
                            f"{classdef.name} claims supports_async_tell but "
                            f"overrides ledger internal {method}()",
                            hint="async-native algorithms must inherit the base "
                            "ledger; drop the flag or the override",
                        )
                    )
        return findings
