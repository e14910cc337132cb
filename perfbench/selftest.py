"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, on the first instances of every workload, that
* the corpus depends only on the seed;
* a traced pass gives exactly the same calls and counts for the same seed;
* the output check rejects a wrong output;
* run.py reports exactly the metrics BENCHMARK.json names.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
from corpus import GENERATORS, make_corpus
from layers import Tracer

SUBSET = 6


def traced_pass(workload: str, seed: int):
    """One traced pass over the first SUBSET instances."""
    latkit, corpus, _, _ = run.setup(workload, seed)
    corpus = corpus[:SUBSET]
    tracer = Tracer()
    tracer.install(latkit)
    try:
        loop = run.timed_loop(latkit, corpus, 0.0, tracer)
        with tracer.suspended():
            run.verify(latkit, corpus, loop, tracer.oracle)
    finally:
        tracer.uninstall()
    return latkit, corpus, loop, run.per_layer(tracer, loop)


def counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def mutated(output: str) -> str:
    """The output with its last vector doubled, which changes the lattice
    it spans and the norm of that vector."""
    lines = output.splitlines()
    lines[-1] = " ".join(str(2 * Fraction(t)) for t in lines[-1].split())
    return "\n".join(lines) + "\n"


def main() -> int:
    if not (run.SRC / "latkit" / "__init__.py").is_file():
        print(f"error: latkit sources not found under {run.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)
    for workload in GENERATORS:
        assert make_corpus(workload, 7, 3) == make_corpus(workload, 7, 3)
        assert make_corpus(workload, 7, 3) != make_corpus(workload, 8, 3)
        latkit, corpus, loop, first = traced_pass(workload, 11)
        _, _, _, second = traced_pass(workload, 11)
        assert loop.failed == 0, loop.reasons
        assert counts(first) == counts(second), workload
        assert first["cli.main.calls"][0] == SUBSET
        assert [m["name"] for m in spec["per_layer"]] == list(first)
        inst = corpus[0]
        rows = run.parse_lattice(inst.text)
        output = loop.first_output[0]
        assert run.check_output(latkit, inst, rows, output) == ""
        assert run.check_output(latkit, inst, rows, mutated(output)) != ""
        print(f"{workload}: counts repeat, check rejects a wrong output")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
