"""Benchmark DY — incremental PPR maintenance vs from-scratch solves.

An R-MAT graph evolves under random edge insertions/deletions while a
:class:`~repro.api.engine.PPREngine` keeps a tracked source fresh.
The claim under test: refreshing after a batch of updates via the push
invariant's residue corrections costs measurably fewer residue updates
than re-solving with PowerPush on the compacted graph, at the same
certified ``l1_threshold`` (:meth:`DynamicResult.claims`).

Runnable as a script (CI exercises this on every push); it prints the
table and one ``PASS``/``FAIL`` line per claim, and exits 1 if any
claim fails::

    PYTHONPATH=src python benchmarks/bench_dynamic_updates.py --smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.dynamic import run_dynamic_updates


def main(argv: list[str] | None = None) -> int:
    """Script entry point; ``--smoke`` runs a seconds-scale CI check."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny deterministic run asserting the incremental win",
    )
    # Default to None so --smoke only shrinks sizes the user left unset.
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--edges", type=int, default=None)
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args(argv)

    defaults = (10, 8_000, 2, 20) if args.smoke else (11, 16_000, 4, 25)
    scale, edges, batches, batch_size = (
        given if given is not None else fallback
        for given, fallback in zip(
            (args.scale, args.edges, args.batches, args.batch_size), defaults
        )
    )

    result = run_dynamic_updates(
        scale=scale,
        num_edges=edges,
        num_batches=batches,
        batch_size=batch_size,
        seed=args.seed,
    )
    print(result.render())
    return 0 if all(passed for _, passed in result.claims()) else 1


if __name__ == "__main__":
    sys.exit(main())
