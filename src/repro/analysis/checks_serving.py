"""Serving-layer rules: version stamping, lock and shm discipline.

The serving layer multiplexes one mutable engine across reader threads
and (in sharded mode) worker processes; its standing hazards are
stale-version answers (a memoised result outliving the graph snapshot
it was computed on), writer-lock convoys (blocking work — including
process/pool construction — performed while holding the exclusive side
of the RWLock), and leaked ``/dev/shm`` segments (a
``SharedMemory(create=True)`` with no reachable ``unlink`` path).  All
are invariants the type system cannot express, so they live here.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.corpus import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule

_MEMO_PACKAGES = ("repro.api", "repro.serving")

#: Method names that mark a class as a read side of a memo/cache.
_GETTERS = frozenset({"get", "lookup", "fetch", "__getitem__"})
#: Method names that mark a class as a write side of a memo/cache.
_PUTTERS = frozenset({"put", "insert", "store", "set", "__setitem__"})


@register_rule
class VersionStampRule(Rule):
    id = "version-stamp"
    summary = (
        "memoising classes in repro.api / repro.serving stamp and "
        "check a graph version"
    )
    invariant = (
        "Every memo keyed on graph-derived data carries the graph "
        "version it was computed under and validates it on lookup; a "
        "version-blind cache silently serves answers for a graph that "
        "no longer exists after apply_updates."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package(*_MEMO_PACKAGES):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Cache" not in node.name:
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            has_get = bool(methods & _GETTERS) or any(
                name.startswith("get") for name in methods
            )
            has_put = bool(methods & _PUTTERS) or any(
                name.startswith("put") for name in methods
            )
            if not (has_get and has_put):
                # Stats holders and the like: Cache in the name but no
                # lookup/store surface, nothing to go stale.
                continue
            if not self._mentions_version(node):
                yield self.finding(
                    file,
                    node,
                    f"memoising class {node.name} never references a "
                    f"version; stamp entries with the graph version and "
                    f"check it on lookup so apply_updates invalidates "
                    f"stale answers",
                )

    @staticmethod
    def _mentions_version(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Name) and "version" in node.id.lower():
                return True
            if (
                isinstance(node, ast.Attribute)
                and "version" in node.attr.lower()
            ):
                return True
            if isinstance(node, ast.arg) and "version" in node.arg.lower():
                return True
        return False


@register_rule
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    summary = (
        "no blocking calls or process construction while holding the "
        "writer lock; no future settled under self._mutex; no bare or "
        "swallowed excepts in the serving layer"
    )
    invariant = (
        "The writer side of the RWLock is held only for pointer swaps: "
        "sleeping, untimed future/event waits, engine solves, or "
        "forking a worker process/pool under it convoy every reader "
        "(and a fork taken while the lock is held duplicates the held "
        "lock into the child).  A future is settled only after "
        "self._mutex is released: set_result/set_exception run the "
        "client's done-callbacks on the settling thread, and one that "
        "calls back into the object (route(), stats()) would wait on "
        "the non-reentrant mutex its own caller holds.  Exceptions "
        "around future resolution are either re-raised or routed to "
        "the future, never dropped."
    )

    _SERVING_PACKAGE = "repro.serving"
    #: Attribute calls that block their caller when invoked untimed.
    _UNTIMED_BLOCKERS = frozenset({"result", "wait"})
    #: Engine entry points that run a full solve.
    _SOLVE_ATTRS = frozenset({"solve", "batch_query"})
    #: Constructors that fork worker processes (or whole pools of them).
    _PROCESS_CTORS = frozenset(
        {"Process", "Pool", "ProcessPoolExecutor", "fork"}
    )
    #: Calls that settle a future, i.e. run its done-callbacks.
    _SETTLE_ATTRS = frozenset({"set_result", "set_exception"})
    _SETTLE_HELPERS = frozenset({"self._resolve", "self._fail"})

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package(self._SERVING_PACKAGE):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.With):
                yield from self._check_write_region(file, node)
                yield from self._check_mutex_region(file, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(file, node)

    # -- writer-lock regions -------------------------------------------
    def _check_write_region(
        self, file: SourceFile, node: ast.With
    ) -> Iterable[Finding]:
        if not any(
            self._is_write_acquire(item.context_expr) for item in node.items
        ):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                blocked = self._blocking_reason(sub)
                if blocked is not None:
                    yield self.finding(
                        file,
                        sub,
                        f"{blocked} inside a held writer-lock region; "
                        f"the write side of the RWLock must be held "
                        f"only for swap-in, never across blocking work",
                    )

    @staticmethod
    def _is_write_acquire(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        name = dotted_name(expr.func)
        return name is not None and name.split(".")[-1] == "write"

    def _blocking_reason(self, call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        if name == "time.sleep" or (
            name is not None and name.endswith(".sleep")
        ):
            return f"blocking sleep {name}()"
        if name is not None and name.split(".")[-1] in self._PROCESS_CTORS:
            return f"process/pool construction {name}()"
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if attr in self._SOLVE_ATTRS:
            return f"engine solve .{attr}()"
        if attr in self._UNTIMED_BLOCKERS and not call.args:
            has_timeout = any(
                kw.arg == "timeout" for kw in call.keywords
            )
            if not has_timeout:
                return f"untimed .{attr}()"
        return None

    # -- futures settled under the mutex -------------------------------
    def _check_mutex_region(
        self, file: SourceFile, node: ast.With
    ) -> Iterable[Finding]:
        if not any(
            dotted_name(item.context_expr) == "self._mutex"
            for item in node.items
        ):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                name = dotted_name(sub.func)
                if name in self._SETTLE_HELPERS or (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self._SETTLE_ATTRS
                ):
                    yield self.finding(
                        file,
                        sub,
                        f"{name or sub.func.attr}() inside `with "
                        f"self._mutex:` settles a future with the mutex "
                        f"held; its done-callbacks run right here and "
                        f"deadlock if they re-enter — collect what to "
                        f"settle, release, then settle",
                    )

    # -- exception hygiene ---------------------------------------------
    def _check_handler(
        self, file: SourceFile, handler: ast.ExceptHandler
    ) -> Iterable[Finding]:
        if handler.type is None:
            yield self.finding(
                file,
                handler,
                "bare except: in the serving layer; catch a concrete "
                "exception type and route it to the pending future",
            )
            return
        name = dotted_name(handler.type)
        if name not in ("Exception", "BaseException"):
            return
        if self._swallows(handler):
            yield self.finding(
                file,
                handler,
                f"except {name} with a pass-only body swallows the "
                f"error; re-raise or attach it to the future so a "
                f"failed request never hangs its caller",
            )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        meaningful = [
            stmt
            for stmt in handler.body
            if not isinstance(stmt, ast.Pass)
            and not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
        ]
        return not meaningful


@register_rule
class AsyncDisciplineRule(Rule):
    id = "async-discipline"
    summary = (
        "no blocking calls (time.sleep, untimed .result()/.wait()) "
        "inside async functions in the serving layer"
    )
    invariant = (
        "An async def in repro.serving runs on the event loop: one "
        "time.sleep or untimed future .result()/.wait() stalls every "
        "in-flight request at once.  Blocking work belongs in the "
        "executor (run_in_executor) or behind asyncio.wrap_future / "
        "asyncio.wait_for; pauses use asyncio.sleep.  Sync defs "
        "nested inside an async def are exempt — they run wherever "
        "they are called, typically the executor."
    )

    _SERVING_PACKAGE = "repro.serving"
    #: Attribute calls that park the calling thread when untimed.
    _UNTIMED_BLOCKERS = frozenset({"result", "wait"})

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package(self._SERVING_PACKAGE):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(file, node)

    def _check_async_body(
        self, file: SourceFile, fn: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        # Walk the async function's own statements only: a nested def
        # is its own execution context (sync helpers run off-loop via
        # the executor; nested async defs are visited on their own by
        # the outer walk), so the scan resets at function boundaries.
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                reason = self._blocking_reason(node)
                if reason is not None:
                    yield self.finding(
                        file,
                        node,
                        f"{reason} inside async def {fn.name}() blocks "
                        f"the event loop; use asyncio.sleep / "
                        f"wrap_future / wait_for, or push the call into "
                        f"run_in_executor",
                    )
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_reason(self, call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        if name == "sleep" or (
            name is not None
            and name.endswith(".sleep")
            and not name.endswith("asyncio.sleep")
        ):
            return f"blocking sleep {name}()"
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if attr in self._UNTIMED_BLOCKERS and not call.args:
            has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
            if not has_timeout:
                return f"untimed .{attr}()"
        return None


#: Method names that count as a teardown surface for an owned segment.
_SHM_CLEANUP_METHODS = frozenset(
    {"close", "unlink", "cleanup", "__exit__", "__del__"}
)

_AnyFunc = ast.FunctionDef | ast.AsyncFunctionDef
#: A ``SharedMemory(create=True)`` call with its enclosing scopes.
_CreationSite = tuple[ast.ClassDef | None, "_AnyFunc | None", ast.Call]


@register_rule
class ShmDisciplineRule(Rule):
    id = "shm-discipline"
    summary = (
        "every SharedMemory(create=True) has a reachable unlink() in a "
        "finally/except or teardown-method path"
    )
    invariant = (
        "A process that creates a shared-memory segment owns its "
        "lifetime: the creation site is guarded so a half-built "
        "segment is unlinked on failure, or the owning class exposes a "
        "teardown method (close/unlink/cleanup/__exit__) that unlinks "
        "it.  A create with no reachable unlink path leaks a "
        "/dev/shm file that outlives every process."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        assert file.tree is not None
        for cls, fn, call in self._creations(file.tree):
            if fn is not None and self._guarded_locally(fn):
                continue
            if cls is not None and self._class_has_teardown(cls):
                continue
            yield self.finding(
                file,
                call,
                "SharedMemory(create=True) with no reachable unlink(): "
                "guard the creation with a finally/except that unlinks "
                "the half-built segment, or give the owning class a "
                "close/unlink/cleanup method that does",
            )

    # -- locating creation sites with their enclosing scopes -----------
    @classmethod
    def _creations(cls, tree: ast.Module) -> Iterable["_CreationSite"]:
        def visit(
            node: ast.AST,
            in_class: ast.ClassDef | None,
            in_fn: "_AnyFunc | None",
        ) -> Iterable["_CreationSite"]:
            for child in ast.iter_child_nodes(node):
                next_class, next_fn = in_class, in_fn
                if isinstance(child, ast.ClassDef):
                    next_class = child
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    next_fn = child
                if isinstance(child, ast.Call) and cls._is_create(child):
                    yield in_class, in_fn, child
                yield from visit(child, next_class, next_fn)

        yield from visit(tree, None, None)

    @staticmethod
    def _is_create(call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None or name.split(".")[-1] != "SharedMemory":
            return False
        return any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )

    # -- the two sanctioned cleanup shapes -----------------------------
    @staticmethod
    def _calls_unlink(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "unlink"
            for sub in ast.walk(node)
        )

    @classmethod
    def _guarded_locally(
        cls, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """A try in the creating function unlinks on failure/teardown."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try):
                continue
            for region in (*node.handlers, *node.finalbody):
                if cls._calls_unlink(region):
                    return True
        return False

    @classmethod
    def _class_has_teardown(cls, owner: ast.ClassDef) -> bool:
        """The owning class exposes a teardown method that unlinks."""
        return any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in _SHM_CLEANUP_METHODS
            and cls._calls_unlink(item)
            for item in owner.body
        )


@register_rule
class RetryDisciplineRule(Rule):
    id = "retry-discipline"
    summary = (
        "retry loops in repro.serving are bounded, backed off, and "
        "deadline-aware; no bare while-True around cross-process sends"
    )
    invariant = (
        "A retry that is not bounded by an attempt budget and the "
        "request deadline turns one dead shard into an infinite "
        "cross-process send loop (a hung future with a hot CPU "
        "attached).  Every function on the retry path names its "
        "attempt counter and the deadline it respects — or delegates "
        "to one that does — and every while-True that ships messages "
        "to another process has a reachable break/return/raise."
    )

    _SERVING_PACKAGE = "repro.serving"
    #: Queue/pipe methods that cross a process boundary.
    _SEND_ATTRS = frozenset({"put", "put_nowait", "send", "send_bytes"})
    _RETRY_MARKERS = ("retry", "resubmit")

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.in_package(self._SERVING_PACKAGE):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.While):
                yield from self._check_loop(file, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_retry_function(file, node)

    # -- while True around cross-process sends -------------------------
    def _check_loop(
        self, file: SourceFile, loop: ast.While
    ) -> Iterable[Finding]:
        if not (
            isinstance(loop.test, ast.Constant) and loop.test.value is True
        ):
            return
        # Sends count anywhere lexically inside the loop (a helper
        # defined and called per-iteration still sends per-iteration);
        # exits count only in the loop's own control flow.
        sends = [
            sub
            for sub in ast.walk(loop)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in self._SEND_ATTRS
        ]
        if not sends:
            return
        if any(
            isinstance(sub, (ast.Break, ast.Return, ast.Raise))
            for sub in self._walk_loop(loop)
        ):
            return
        yield self.finding(
            file,
            sends[0],
            "while True loop sends to another process with no "
            "break/return/raise: an unreachable peer turns this into "
            "an unbounded retry; bound it with an attempt budget or "
            "an exit condition",
        )

    @staticmethod
    def _walk_loop(loop: ast.While) -> Iterable[ast.AST]:
        """Walk a loop body without descending into nested defs (their
        control flow does not terminate this loop)."""

        def visit(node: ast.AST) -> Iterable[ast.AST]:
            for child in ast.iter_child_nodes(node):
                yield child
                if not isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    yield from visit(child)

        for stmt in loop.body:
            yield stmt
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                yield from visit(stmt)

    # -- retry/resubmit functions --------------------------------------
    def _check_retry_function(
        self, file: SourceFile, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        lowered = fn.name.lower()
        if not any(marker in lowered for marker in self._RETRY_MARKERS):
            return
        names = {
            part.lower()
            for node in ast.walk(fn)
            for part in self._identifier_parts(node)
        }
        deadline_aware = any("deadline" in name for name in names)
        bounded = any("attempt" in name for name in names) or any(
            "retry" in name
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            for name in [dotted_name(node.func) or ""]
            if name.lower() != fn.name.lower()
        )
        if deadline_aware and bounded:
            return
        missing = []
        if not bounded:
            missing.append(
                "an attempt budget (or delegation to a *retry* helper)"
            )
        if not deadline_aware:
            missing.append("the request deadline")
        yield self.finding(
            file,
            fn,
            f"retry-path function {fn.name}() never references "
            + " or ".join(missing)
            + "; unbounded or deadline-blind retries hang futures "
            "past the caller's budget",
        )

    @staticmethod
    def _identifier_parts(node: ast.AST) -> Iterable[str]:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
