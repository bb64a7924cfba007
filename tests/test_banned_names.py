"""Names this project deleted, and the places they must not come back to.

Each row of ``BANNED`` names something a change deleted: a module, a
mechanism, or a construct that a simpler or faster one replaced.  It
gives the paths it must not reappear in, why it went, and the last
commit whose tree still has it (``git show <commit>:<path>`` shows the
old code).  Most rows are regular expressions, one per banned spelling,
searched line by line over the files ``git ls-files`` lists for the
row's paths: tracked files, and untracked ones that are not ignored.
Two rows are structural: a file that must not exist, and a call that
must not appear inside one function, found with ``ast``.  This file is
not searched, since it spells every banned name.

Adding a guard is adding a row.  A row is checked three ways: the tree
holds none of it; each path it names is in the tree (a misspelt path
would pass forever); and every sample it carries, one per banned
spelling, is reported when it is planted under every path of the row in
a temporary repository, while its near misses are not.
"""

from __future__ import annotations

import ast
import re
import subprocess
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()
#: What the planted samples are written to, under a row's directories.
SAMPLE_FILE = "banned_sample.txt"
#: An exported tree (``git archive``) has no file list to read.
in_checkout = pytest.mark.skipif(
    not (ROOT / ".git").exists(), reason="not a git checkout: no files are listed"
)

Hit = tuple[str, int]


def listed(root: Path, paths: tuple[str, ...]) -> list[str]:
    """The files git lists under ``paths`` in ``root``, as ``git grep`` saw them."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *paths],
        cwd=root,
        capture_output=True,
        check=True,
    ).stdout
    names = sorted({name.decode() for name in out.split(b"\0") if name})
    return [name for name in names if name != SELF and (root / name).is_file()]


def lines_of(path: Path) -> list[str]:
    # git grep splits on newlines only, and reports binary files too.
    return path.read_bytes().decode("utf-8", "replace").split("\n")


def unescape(pattern: str) -> str:
    return re.sub(r"\\(.)", r"\1", pattern)


def compiled(alternatives: tuple[str, ...]) -> re.Pattern[str]:
    return re.compile("|".join(f"(?:{a})" for a in alternatives))


def fixed(*strings: str) -> tuple[str, ...]:
    """Alternatives that match each string literally (``git grep -F``)."""
    return tuple(re.escape(string) for string in strings)


@dataclass(frozen=True)
class Banned:
    """No line matching any of ``alternatives`` in the files under ``paths``.

    ``samples`` holds one line per alternative that the row must report;
    by default each alternative with its escapes removed.  ``near_misses``
    are lines it must not report.
    """

    name: str
    alternatives: tuple[str, ...]
    paths: tuple[str, ...]
    reason: str
    deleted_after: str
    samples: tuple[str, ...] = ()
    near_misses: tuple[str, ...] = ()

    def sample_lines(self) -> tuple[str, ...]:
        return self.samples or tuple(unescape(a) for a in self.alternatives)

    def find(self, root: Path) -> list[Hit]:
        pattern = compiled(self.alternatives)
        return [
            (name, number)
            for name in listed(root, self.paths)
            for number, line in enumerate(lines_of(root / name), 1)
            if pattern.search(line)
        ]

    def missing(self, root: Path) -> list[str]:
        return [path for path in self.paths if not listed(root, (path,))]

    def plant(self, root: Path) -> set[Hit]:
        planted = set()
        lines = self.sample_lines()
        for path in self.paths:
            name = path if (ROOT / path).is_file() else f"{path}/{SAMPLE_FILE}"
            write(root / name, [*lines, *self.near_misses])
            planted |= {(name, number) for number in range(1, len(lines) + 1)}
        return planted


@dataclass(frozen=True)
class Absent:
    """The file ``path`` must not exist."""

    name: str
    path: str
    reason: str
    deleted_after: str

    def find(self, root: Path) -> list[Hit]:
        return [(self.path, 0)] if (root / self.path).exists() else []

    def missing(self, root: Path) -> list[str]:
        parent = str(Path(self.path).parent)
        return [] if listed(root, (parent,)) else [parent]

    def plant(self, root: Path) -> set[Hit]:
        write(root / self.path, [])
        return {(self.path, 0)}


@dataclass(frozen=True)
class BannedIn:
    """No line matching ``alternatives`` inside ``function`` (``Class.method``)
    of ``path``, from its ``def`` line to its last line."""

    name: str
    alternatives: tuple[str, ...]
    path: str
    function: str
    reason: str
    deleted_after: str
    samples: tuple[str, ...]

    def sample_lines(self) -> tuple[str, ...]:
        return self.samples

    def span(self, root: Path) -> range | None:
        tree = ast.parse((root / self.path).read_text())
        owner, method = self.function.split(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == owner:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        item.name == method
                    ):
                        return range(item.lineno, item.end_lineno + 1)
        return None

    def find(self, root: Path) -> list[Hit]:
        pattern = compiled(self.alternatives)
        lines = lines_of(root / self.path)
        return [
            (self.path, number)
            for number in self.span(root) or ()
            if pattern.search(lines[number - 1])
        ]

    def missing(self, root: Path) -> list[str]:
        if not listed(root, (self.path,)):
            return [self.path]
        return [] if self.span(root) else [f"{self.path}: {self.function}"]

    def plant(self, root: Path) -> set[Hit]:
        owner, method = self.function.split(".")
        body = [f"        {line}" for line in self.samples]
        # The same lines in the next method are outside the function.
        write(
            root / self.path,
            [f"class {owner}:", f"    def {method}(self):", *body, "",
             "    def after(self):", *body],
        )
        return {(self.path, 3 + k) for k in range(len(self.samples))}


def write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines))


SRC_TESTS_README = ("src", "tests", "README.md")
DOCS_AND_CODE = (
    "src", "tests", "examples", "benchmarks", "README.md", "CONTRIBUTING.md",
    "pyproject.toml", ".claude", ".github",
)

BANNED: tuple[Banned | Absent | BannedIn, ...] = (
    Banned(
        "spec-name-dispatch",
        (r"spec\.name ==",),
        ("src/repro/api/engine.py", "src/repro/serving"),
        "the engine and the serving tiers name no method: they serve what a "
        "SolverSpec declares, so a solver registered by a test needs no edit in src/",
        "b70a308",
    ),
    Banned(
        "kernel-backends",
        ("numba", "KernelBackend", "REPRO_PPR_BACKEND", "register_backend",
         "active_backend", "get_backend", "available_backends"),
        ("src", "pyproject.toml"),
        "one kernel path: the numba backend and the backend registry went, and no "
        "option or environment variable selects a kernel",
        "9c5b6eb",
    ),
    Banned(
        "block-path",
        ("block_fn", "block_rule", "solve_block", "monte_carlo_ppr_block",
         "_BATCH_WALK_BUDGET", "batchable"),
        ("src",),
        "no solver has a block path: the last one (unseeded Monte-Carlo) went, "
        "and every batch loops over single-source solves",
        "1b17df4",
    ),
    Banned(
        "shard-server",
        ("EngineServer", "QueryScheduler", "run_pending"),
        ("src/repro/serving/sharded.py",),
        "a shard is a bare PPREngine behind a receive loop, with no server or "
        "scheduler thread of its own",
        "1b17df4",
    ),
    Banned(
        "micro-batch-window",
        ("QueryScheduler", "SchedulerStats", "run_pending", "set_window", "window_min",
         "window_max", "target_batch", "ewma_alpha", r"batch_size=1[,)]",
         r"served\.batch_size"),
        ("src", "examples"),
        "the thread tier lost its micro-batch window and scheduler: a led flight "
        "goes to the tier's one worker thread",
        "ed7e664",
        samples=("QueryScheduler", "SchedulerStats", "run_pending", "set_window",
                 "window_min", "window_max", "target_batch", "ewma_alpha",
                 "EngineServer(graph, batch_size=1)", "served.batch_size"),
    ),
    Banned(
        "tier-flight-tables",
        ("_flights",),
        ("src/repro/serving/sharded.py", "src/repro/serving/server.py"),
        "both tiers share one FlightTable (result cache and single-flight table) "
        "from serving/flights.py and keep no flight table of their own",
        "ed7e664",
    ),
    Banned(
        "reply-arena",
        ("ReplyArena", "slot-result", "_ARENA_", "replies_slot", "replies_inline",
         "reply_slots", "per_worker_replies", "SharedSegment", "_NO_VECTOR"),
        ("src", "tests", "examples", "README.md"),
        "a shard's answer is a pickle again: the shared-memory reply arena went, "
        "since only misses cross the pipe",
        "2dce67b",
    ),
    Banned(
        "door-answer-cache",
        # `[^[:alnum:]_]` is `\W`: `_degraded_hit` as a whole word only.
        ("_degraded_cache", r"(?<!\w)_degraded_hit(?!\w)", "degraded_cache_hits",
         "degrade_method", "_drive_frontdoor", "lt-updater", r"server_stats\("),
        ("src", "tests", "examples", "README.md"),
        "the front door stores no answers: a degraded request is a backend "
        "request, and every load drive goes through AsyncFrontDoor",
        "16de051",
        samples=("_degraded_cache", "hit = door._degraded_hit(key)",
                 "degraded_cache_hits", "degrade_method", "_drive_frontdoor",
                 "lt-updater", "server_stats(server)"),
        near_misses=(
            "    def test_a_degraded_hit_is_a_copy_marked_degraded(self, tier):",
            "self._degraded_hits = 0",
        ),
    ),
    Banned(
        "chunked-sweep",
        ("SweepPlan", "SWEEP_CHUNKS", "sweep_plan", "async_propagate", "sweep_shares"),
        SRC_TESTS_README,
        "the chunked asynchronous sweep went: Algorithm 3's scan is one "
        "node-granular sweep in C",
        "f31b37e",
    ),
    Banned(
        "scipy-gather-scatter",
        ("gather_ranges", "scatter_add", "_sparsetools", "_GrownConstant", "_ZERO_TAGS",
         "_EVEN_ROWS", "workspace-discipline", r"core\.workspace"),
        ("src", "tests", "README.md", "CONTRIBUTING.md"),
        "the local push is one C range scatter: scipy's private gather/scatter "
        "pair, the Workspace pool and its lint rule went",
        "f182ec0",
    ),
    Banned(
        "core-workspace",
        ("workspace",),
        ("src/repro/core",),
        "repro.core keeps no Workspace pool: the C loops need no scratch arrays "
        "handed in",
        "f182ec0",
    ),
    Banned(
        "refinement-python-push",
        ("sweep_active", "frontier_push"),
        ("src/repro/core/refinement.py", "src/repro/core/speedppr.py"),
        "SpeedPPR's post-refinement is one compiled loop, not Python calls of the "
        "sweep and push kernels",
        "194f464",
    ),
    Banned(
        "refinement-python-passes",
        ("settle_sweep", "_apply_dead_end_mass"),
        ("src/repro/core/refinement.py",),
        "the refinement's passes and the dead-end routing between them run "
        "inside one C call, refine_passes",
        "b2c98ca",
    ),
    Banned(
        "powerpush-python-loop",
        ("settle_sweep", "async_sweep", "extrapolate_window", "frontier_push"),
        ("src/repro/core/powerpush.py", "src/repro/core/incremental.py"),
        "PowerPush and the incremental certification run their queue rounds and "
        "scan epochs as C calls, not Python loops over kernels",
        "8116390",
    ),
    Banned(
        "edge-sources-cache",
        ("edge_sources", "adopt_push_caches"),
        SRC_TESTS_README,
        "the push family reads only the out-CSR: the cached edge-source array and "
        "the shared image's third array went",
        "f40ad74",
    ),
    Banned(
        "transpose-matvec",
        ("transition_matrix_transpose",),
        ("src/repro/core/power_iteration.py", "src/repro/core/pagerank.py",
         "src/repro/core/sim_fwdpush.py", "src/repro/serving"),
        "PowItr's and PageRank's sweep is one range scatter over the out-CSR; "
        "only BePI builds P^T",
        "f40ad74",
    ),
    Banned(
        "hit-future",
        fixed("result(timeout=0)"),
        ("src/repro/serving/frontdoor.py",),
        "a cache hit is one lookup that returns the answer, not a done future "
        "read back",
        "b7e3038",
    ),
    Banned(
        "global-resolve-memo",
        ("_resolve_memo", "_resolve_memo_lock", "_RESOLVE_MEMO_SIZE"),
        ("src",),
        "each serving tier resolves a request shape once, in a memo of its own; "
        "the global memo and its lock went",
        "ff46cbb",
    ),
    Banned(
        "per-tier-read-path",
        (r"def _admit", r"def try_submit", r"def submit\("),
        ("src/repro/serving/server.py", "src/repro/serving/sharded.py"),
        "both tiers inherit one read path from ServingTier: _admit, submit and "
        "try_submit are written once, in serving/flights.py",
        "2f067c5",
    ),
    Banned(
        "try-acquire-read",
        ("try_acquire_read",),
        SRC_TESTS_README,
        "a hit reads the writer state inside the tier's mutex section, so the "
        "lock's own non-blocking read attempt went",
        "1f3bf07",
    ),
    Banned(
        "rwlock-own-mutex",
        ("_mutex",),
        ("src/repro/serving/locks.py",),
        "the RWLock keeps its state under the lock it is given (the tier's "
        "_mutex) and owns none",
        "1f3bf07",
    ),
    Banned(
        "door-backend-union",
        fixed("Backend = Union"),
        ("src/repro/serving/frontdoor.py",),
        "the door's backend is a ServingTier, not a union of the two tier classes",
        "2f067c5",
    ),
    Banned(
        "cache-ttl",
        ("cache_ttl", "cache-ttl", "expires_at", "expirations", "FakeClock"),
        SRC_TESTS_README,
        "a cached answer expires by graph version only: the time-to-live, its "
        "flag and its fake clock went",
        "bbbf313",
    ),
    Banned(
        "workload-module-import",
        fixed("repro.serving.workload"),
        ("src", "tests", "examples", "README.md"),
        "the workload generator lives in repro.serving.loadtest; the workload "
        "module went",
        "bbbf313",
    ),
    Absent(
        "workload-module",
        "src/repro/serving/workload.py",
        "the workload generator lives in repro.serving.loadtest",
        "bbbf313",
    ),
    Banned(
        "loadtest-own-counts",
        (r"\+= 1", "mirror"),
        ("src/repro/serving/loadtest.py",),
        "run_loadtest reads the front door's counts: it counts no request itself "
        "and keeps no parent-side mirror of the graph",
        "bbbf313",
    ),
    Banned(
        "csr-lexsort",
        ("lexsort",),
        ("src/repro/graph/build.py",),
        "the CSR builder sorts one u*n + v key, with the bytes np.lexsort gave",
        "202f196",
    ),
    Banned(
        "chung-lu-set",
        (r"set\[int\]", r"seen\.add"),
        ("src/repro/generators/chung_lu.py",),
        "Chung-Lu keeps its accepted edges as one sorted int64 key array, not a "
        "Python set",
        "202f196",
    ),
    Banned(
        "chung-lu-endpoint-lists",
        ("sources_list", "targets_list", "from_edge_arrays"),
        ("src/repro/generators/chung_lu.py",),
        "Chung-Lu builds its graph from the sorted key array alone "
        "(from_sorted_keys), with no endpoint lists",
        "aaad2bc",
    ),
    Banned(
        "chung-lu-bit-packed-sort",
        ("position_bits",),
        ("src/repro/generators/chung_lu.py",),
        "endpoints are drawn through a guide-table inverse CDF in one C loop, "
        "not a bit-packed sort of the uniforms",
        "d85e8d6",
    ),
    Banned(
        "deflated-graph-files",
        ("savez_compressed",),
        ("src/repro/graph/io.py",),
        "graph files are stored uncompressed, which halves a durable server's "
        "start; deflated files still load",
        "6e129e6",
    ),
    Banned(
        "rmat-union-search",
        ("union1d", "searchsorted"),
        ("src/repro/generators/rmat.py",),
        "R-MAT ranks its node ids with a presence mask, not np.union1d and two "
        "searches over all edges",
        "6e129e6",
    ),
    Banned(
        "walk-lockstep",
        (r"alive\[~halting\]",),
        ("src/repro/walks/engine.py",),
        "walks step in two C loops; the NumPy lock-step is the tests' reference "
        "only",
        "6fdd5d5",
    ),
    Banned(
        "hand-written-argtypes",
        (r"lib\.repro_[a-z_]+\.argtypes", r"lib\.repro_[a-z_]+\.restype",
         "_vector_address", "def _address"),
        ("src/repro/core",),
        "every C entry point is declared once, in kernels._ENTRIES, which sets "
        "argtypes and restype and checks each argument",
        "cf4526a",
        samples=("lib.repro_queue_rounds.argtypes = []",
                 "lib.repro_refine.restype = ctypes.c_int",
                 "_vector_address", "def _address"),
    ),
    BannedIn(
        "merge-overlay-key-array",
        (r"_edge_keys\(",),
        "src/repro/graph/dynamic.py",
        "DynamicGraph._merge_overlay",
        "a snapshot finds each overlay edge by a binary search of its own row and "
        "builds no key array over all m edges",
        "202f196",
        samples=("keys = _edge_keys(base)",),
    ),
    Banned(
        "unregistered-solvers",
        fixed("simfwdpush", "fwdpush-scheduled", "push_mode", 'ParamSpec("mode"',
              'mode="faithful"', "_run_faithful", "BEARIndex", "bear_query",
              "walk_stop_counts"),
        ("src", "examples", "README.md"),
        "one solver per line of the paper, one path per solver: SimFwdPush and "
        "scheduled FwdPush are unregistered, and their modes, BEAR and the walk "
        "stop counts went",
        "c193bc5",
    ),
    Banned(
        "python-sweep-layer",
        ("sweep_active", "DENSE_SWEEP_FRACTION", "settle_sweep", "frontier_propagate"),
        ("src", "README.md"),
        "FIFO-FwdPush runs on PowerPush's C queue rounds; the Python-driven sweep "
        "layer went",
        "d547ef7",
    ),
    Banned(
        "pytest-benchmark",
        ("pytest-benchmark", "benchmark-only", "benchmark-disable"),
        ("pyproject.toml", "src", "README.md", ".claude"),
        "the paper-shape checks are claims() verdicts of `repro-ppr run`; the "
        "pytest-benchmark wrappers went",
        "d39684a",
    ),
    Banned(
        "dynamic-updates-runners",
        ("update-bench", "update_bench", "bench_dynamic_updates"),
        DOCS_AND_CODE,
        "DY has one runner, `repro-ppr run DY`, which exits 1 on a failed claim; "
        "the update-bench subcommand printed the same report and always exited 0",
        "a7b0239",
    ),
    Banned(
        "instrumentation-timers",
        ("Stopwatch", r"instrumentation\.timers"),
        ("src", "tests", "examples", "benchmarks", "README.md"),
        "nothing called the Stopwatch and timed helpers: every result carries "
        "its own seconds",
        "a7b0239",
    ),
)


_name = attrgetter("name")


def test_row_names_are_unique() -> None:
    names = [row.name for row in BANNED]
    assert len(names) == len(set(names))


@in_checkout
@pytest.mark.parametrize("row", BANNED, ids=_name)
def test_tree_holds_no_banned_name(row: Banned | Absent | BannedIn) -> None:
    hits = row.find(ROOT)
    assert not hits, f"{row.name}: {row.reason}\n" + "\n".join(
        f"{path}:{number}" for path, number in hits
    )


@in_checkout
@pytest.mark.parametrize("row", BANNED, ids=_name)
def test_every_path_of_the_row_is_in_the_tree(row: Banned | Absent | BannedIn) -> None:
    assert row.missing(ROOT) == []


@pytest.mark.parametrize(
    "row", [row for row in BANNED if not isinstance(row, Absent)], ids=_name
)
def test_each_sample_matches_its_own_alternative(row: Banned | BannedIn) -> None:
    samples = row.sample_lines()
    assert len(samples) == len(row.alternatives)
    for alternative, sample in zip(row.alternatives, samples):
        assert re.search(alternative, sample), (alternative, sample)
    for line in getattr(row, "near_misses", ()):
        assert not any(re.search(a, line) for a in row.alternatives), line


@pytest.mark.parametrize("row", BANNED, ids=_name)
def test_row_reports_every_planted_sample(
    row: Banned | Absent | BannedIn, tmp_path: Path
) -> None:
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    planted = row.plant(tmp_path)
    assert sorted(row.find(tmp_path)) == sorted(planted)
